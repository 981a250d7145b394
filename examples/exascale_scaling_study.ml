(* A scaling study on the simulated machine: take one tiled Cholesky DAG,
   sweep worker counts and scheduling policies, draw the Gantt chart that
   makes the fork-join bubbles visible, and put the job on the machine
   presets to see time and energy.

   Run with: dune exec examples/exascale_scaling_study.exe *)

module Cholesky = Xsc_core.Cholesky
module Sim_exec = Xsc_runtime.Sim_exec
module Dag = Xsc_runtime.Dag
module Trace = Xsc_runtime.Trace
module Machine = Xsc_simmachine.Machine
module Node = Xsc_simmachine.Node
module Presets = Xsc_simmachine.Presets
module Units = Xsc_util.Units

let gantt_comparison () =
  (* small DAG so the chart stays readable *)
  let dag = Cholesky.dag_ops ~nt:6 ~nb:64 in
  let cfg = Sim_exec.config ~workers:6 ~rate:1e9 () in
  let bsp = Sim_exec.run cfg Sim_exec.Bsp dag in
  let dyn = Sim_exec.run cfg Sim_exec.List_critical_path dag in
  Printf.printf "tiled Cholesky, nt=6, 6 workers — fork-join schedule:\n\n%s\n"
    (Trace.gantt ~width:64 bsp.Sim_exec.trace);
  Printf.printf "the same DAG, dynamic dataflow schedule:\n\n%s\n"
    (Trace.gantt ~width:64 dyn.Sim_exec.trace)

let machine_study () =
  let nt = 20 and nb = 512 in
  let dag = Cholesky.dag_ops ~nt ~nb in
  Printf.printf
    "one tiled Cholesky (n = %d) on the machine presets (dataflow schedule,\none worker per core, fp64):\n\n"
    (nt * nb);
  Printf.printf "%-14s %12s %12s %10s %12s\n" "machine" "workers" "makespan" "busy" "energy";
  List.iter
    (fun (name, m) ->
      (* cap simulated workers: beyond the DAG's parallelism they only idle *)
      let workers = min 4096 (Machine.total_cores m) in
      let cfg =
        Sim_exec.config
          ~comm_cost:(fun ~bytes ->
            Xsc_simmachine.Network.ptp_avg m.Machine.network ~bytes)
          ~workers
          ~rate:(Node.core_rate m.Machine.node Node.FP64)
          ()
      in
      let r = Sim_exec.run cfg Sim_exec.List_critical_path dag in
      Printf.printf "%-14s %12d %12s %10s %12s\n" name workers
        (Units.seconds r.Sim_exec.makespan)
        (Units.percent r.Sim_exec.utilization)
        (Units.joules
           (Machine.power m /. float_of_int (Machine.total_cores m)
           *. float_of_int workers *. r.Sim_exec.makespan)))
    Presets.all;
  Printf.printf
    "\n(the fixed-size problem stops scaling once workers exceed the DAG's\nparallelism of %.0f — the strong-scaling wall the talk warns about)\n"
    (Dag.total_flops dag /. Dag.critical_path_flops dag)

let () =
  gantt_comparison ();
  machine_study ()
