(* TAB-3: strong scaling of the tiled Cholesky on the simulated machine —
   BSP vs DAG across worker counts with a real communication model, and the
   network-topology ablation. *)

module Cholesky = Xsc_core.Cholesky
module Sim_exec = Xsc_runtime.Sim_exec
module Dag = Xsc_runtime.Dag
module Network = Xsc_simmachine.Network
module Topology = Xsc_simmachine.Topology
module Table = Xsc_util.Table
module Units = Xsc_util.Units

let comm_cost_of_topology kind nodes =
  let network = Network.create ~alpha:1.5e-6 ~beta:1e-10 ~per_hop:4e-8 (Topology.of_spec kind nodes) in
  fun ~bytes -> Network.ptp_avg network ~bytes

let run () =
  Bk.header "TAB-3: strong scaling on the simulated machine (tiled Cholesky)";
  let nt = 24 and nb = 512 in
  let dag = Cholesky.dag_ops ~nt ~nb in
  Printf.printf "n = %d (nt = %d, nb = %d): %d tasks, parallelism %.1f\n\n" (nt * nb) nt nb
    (Dag.n_tasks dag)
    (Dag.total_flops dag /. Dag.critical_path_flops dag);
  let base_workers = 16 in
  let scaling = Table.create ~headers:[ "workers"; "BSP"; "DAG"; "DAG speedup"; "DAG eff"; "comm share" ] in
  let base_time = ref 0.0 in
  List.iter
    (fun workers ->
      let comm_cost = comm_cost_of_topology "torus3d" workers in
      let cfg = Sim_exec.config ~comm_cost ~workers ~rate:1e9 () in
      let bsp = Sim_exec.run cfg Sim_exec.Bsp dag in
      let dyn = Sim_exec.run cfg Sim_exec.List_critical_path dag in
      if workers = base_workers then base_time := dyn.Sim_exec.makespan;
      let speedup = !base_time /. dyn.Sim_exec.makespan *. float_of_int base_workers in
      Table.add_row scaling
        [
          string_of_int workers;
          Units.seconds bsp.Sim_exec.makespan;
          Units.seconds dyn.Sim_exec.makespan;
          Units.ratio (speedup /. float_of_int base_workers);
          Units.percent (speedup /. float_of_int workers);
          Units.percent
            (dyn.Sim_exec.comm_time
            /. (dyn.Sim_exec.makespan *. float_of_int workers));
        ])
    [ 16; 64; 256; 1024; 4096 ];
  Table.print scaling;
  (* bandwidth ablation: tile traffic is bandwidth-dominated, so the
     network's beta — not its topology — is what moves the DAG makespan *)
  Printf.printf "\nnetwork-bandwidth ablation at 64 workers (tile messages are 2 MiB):\n\n";
  let bw = Table.create ~headers:[ "link bandwidth"; "DAG makespan"; "comm share"; "vs fast net" ] in
  let baseline = ref 0.0 in
  List.iter
    (fun (label, beta) ->
      let network = Network.create ~alpha:1.5e-6 ~beta ~per_hop:4e-8 (Topology.of_spec "torus3d" 64) in
      let comm_cost ~bytes = Network.ptp_avg network ~bytes in
      let cfg = Sim_exec.config ~comm_cost ~workers:64 ~rate:1e9 () in
      let r = Sim_exec.run cfg Sim_exec.List_critical_path dag in
      if !baseline = 0.0 then baseline := r.Sim_exec.makespan;
      Table.add_row bw
        [
          label;
          Units.seconds r.Sim_exec.makespan;
          Units.percent (r.Sim_exec.comm_time /. (r.Sim_exec.makespan *. 64.0));
          Units.ratio (r.Sim_exec.makespan /. !baseline);
        ])
    [ ("100 GB/s", 1e-11); ("10 GB/s", 1e-10); ("1 GB/s", 1e-9); ("100 MB/s", 1e-8) ];
  Table.print bw;
  (* topology ablation where it actually bites: latency-bound collectives *)
  Printf.printf
    "\ntopology ablation — 8-byte allreduce at 16384 ranks (latency-bound,\nthe regime of Krylov dot products; this is where topology matters):\n\n";
  let topo = Table.create ~headers:[ "topology"; "avg hops"; "allreduce"; "barrier" ] in
  List.iter
    (fun kind ->
      let t = Topology.of_spec kind 16384 in
      let network = Network.create ~alpha:1.5e-6 ~beta:1e-10 ~per_hop:4e-8 t in
      Table.add_row topo
        [
          kind;
          Printf.sprintf "%.1f" (Topology.average_hops t);
          Units.seconds (Network.allreduce_time network ~ranks:16384 ~bytes:8.0);
          Units.seconds (Network.barrier_time network ~ranks:16384);
        ])
    [ "ring"; "mesh2d"; "torus3d"; "fattree"; "dragonfly"; "alltoall" ];
  Table.print topo;
  Printf.printf
    "\npaper claim: strong scaling saturates once the worker count approaches\nthe DAG's average parallelism (%.0f here); tile algorithms are bandwidth-\nbound while global reductions are latency/diameter-bound — the two axes\nthe new algorithms attack.\n"
    (Dag.total_flops dag /. Dag.critical_path_flops dag)
