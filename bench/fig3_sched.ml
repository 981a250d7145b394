(* FIG-3: fork-join (BSP) vs dynamic DAG scheduling for tiled Cholesky —
   simulated across worker counts, including the scheduler-priority
   ablation (critical path vs FIFO vs random work stealing), plus a real
   run of the packed tiled Cholesky on host domains: the sequential and
   fork-join baselines against the work-stealing pool. *)

module Packed = Xsc_tile.Packed
module Cholesky = Xsc_core.Cholesky
module Sim_exec = Xsc_runtime.Sim_exec
module Real_exec = Xsc_runtime.Real_exec
module Pool = Xsc_runtime.Pool
module Dag = Xsc_runtime.Dag
module Table = Xsc_util.Table
module Units = Xsc_util.Units
module Mat = Xsc_linalg.Mat
module Rng = Xsc_util.Rng

let simulated () =
  let nt = 16 and nb = 256 in
  let dag = Cholesky.dag_ops ~nt ~nb in
  Printf.printf "tiled Cholesky: nt=%d (%d tasks, %d edges, depth %d, parallelism %.1f)\n\n"
    nt (Dag.n_tasks dag) (Dag.n_edges dag) (Dag.depth dag)
    (Dag.total_flops dag /. Dag.critical_path_flops dag);
  let table =
    Table.create
      ~headers:
        [ "workers"; "BSP"; "util"; "DAG(cp)"; "util"; "DAG/BSP"; "FIFO"; "steal" ]
  in
  List.iter
    (fun workers ->
      let cfg = Sim_exec.config ~workers ~rate:1e9 () in
      let bsp = Sim_exec.run cfg Sim_exec.Bsp dag in
      let dyn = Sim_exec.run cfg Sim_exec.List_critical_path dag in
      let fifo = Sim_exec.run cfg Sim_exec.List_fifo dag in
      let steal = Sim_exec.run cfg (Sim_exec.Work_stealing 17) dag in
      Table.add_row table
        [
          string_of_int workers;
          Units.seconds bsp.Sim_exec.makespan;
          Units.percent bsp.Sim_exec.utilization;
          Units.seconds dyn.Sim_exec.makespan;
          Units.percent dyn.Sim_exec.utilization;
          Units.ratio (bsp.Sim_exec.makespan /. dyn.Sim_exec.makespan);
          Units.ratio (bsp.Sim_exec.makespan /. fifo.Sim_exec.makespan);
          Units.ratio (bsp.Sim_exec.makespan /. steal.Sim_exec.makespan);
        ])
    [ 4; 8; 16; 32; 64; 128; 256 ];
  Table.print table

let real_host () =
  let nb = 72 and nt = 6 in
  let n = nb * nt in
  let rng = Rng.create 7 in
  let a = Mat.random_spd rng n in
  let workers = max 2 (Real_exec.default_workers ()) in
  let run exec =
    let interp = Cholesky.packed_interp (Packed.D.of_mat ~nb a) in
    let dag = Cholesky.dag_ops ~nt ~nb in
    match exec with
    | `Seq -> Real_exec.run_sequential ~interp dag
    | `Forkjoin -> Real_exec.run_forkjoin ~interp ~workers dag
    | `Dataflow ->
      (* work stealing, critical path first (the pool's bottom-level key) *)
      Pool.run_once ~interp ~workers dag
  in
  (* median of 3 to tame noise *)
  let timed name exec =
    let rs = Array.init 3 (fun _ -> run exec) in
    let xs = Array.map (fun s -> s.Real_exec.elapsed) rs in
    (name, Xsc_util.Stats.median xs, rs.(0))
  in
  let seq = timed "sequential" `Seq in
  let rows =
    [ seq; timed "fork-join" `Forkjoin; timed "dataflow" `Dataflow ]
  in
  Printf.printf "\nreal execution on %d domains (n=%d, nb=%d, median of 3):\n\n" workers n nb;
  if Real_exec.default_workers () <= 1 then
    Printf.printf
      "NOTE: this machine exposes %d core(s); with a single physical core the\n\
       domain executors demonstrate correctness and overhead only — real\n\
       speedups require real cores (the simulated table above carries the\n\
       scaling claim).\n\n"
      (Domain.recommended_domain_count ());
  let table =
    Table.create ~headers:[ "executor"; "time"; "speedup vs seq"; "steals"; "parks" ]
  in
  let (_, seq_t, _) = seq in
  List.iter
    (fun (name, t, stats) ->
      Table.add_row table
        [
          name;
          Units.seconds t;
          Units.ratio (seq_t /. t);
          string_of_int stats.Real_exec.steals;
          string_of_int stats.Real_exec.parks;
        ])
    rows;
  Table.print table

let run () =
  Bk.header "FIG-3: fork-join vs DAG scheduling (tiled Cholesky)";
  simulated ();
  real_host ();
  Printf.printf
    "\npaper claim: DAG scheduling removes the barrier idle time of fork-join;\nthe gap widens with core count.\n"
