(* FIG-7 (extension): heterogeneous nodes — the same aggregate flop rate
   delivered by uniform cores vs a fast+slow mix. Bulk-synchronous schedules
   run each level at the pace of the slowest busy worker; dynamic schedules
   keep the fast cores saturated. *)

module Cholesky = Xsc_core.Cholesky
module Hetero = Xsc_runtime.Hetero
module Dag = Xsc_runtime.Dag
module Table = Xsc_util.Table
module Units = Xsc_util.Units

let run () =
  Bk.header "FIG-7 (extension): heterogeneous workers, BSP vs DAG";
  let nt = 12 and nb = 256 in
  let dag = Cholesky.dag_ops ~nt ~nb in
  Printf.printf "tiled Cholesky nt=%d (%d tasks); every row has 16 Gflop/s aggregate:\n\n" nt
    (Dag.n_tasks dag);
  let table =
    Table.create
      ~headers:
        [ "worker mix"; "BSP oblivious"; "BSP aware"; "DAG"; "ideal"; "oblivious penalty" ]
  in
  List.iter
    (fun (label, rates) ->
      let cfg = Hetero.config ~rates () in
      let naive = Hetero.run_bsp_oblivious cfg dag in
      let bsp = Hetero.run_bsp cfg dag in
      let dyn = Hetero.run_dataflow cfg dag in
      let ideal = Hetero.ideal_time cfg dag in
      Table.add_row table
        [
          label;
          Units.seconds naive.Hetero.makespan;
          Units.seconds bsp.Hetero.makespan;
          Units.seconds dyn.Hetero.makespan;
          Units.seconds ideal;
          Units.ratio (naive.Hetero.makespan /. dyn.Hetero.makespan);
        ])
    [
      ("16 x 1 Gflop/s (uniform)", Array.make 16 1e9);
      ("4 fast (3x) + 4 slow (1x)", Hetero.two_tier ~fast:4 ~slow:4 ~fast_rate:3e9 ~slow_rate:1e9);
      ("2 fast (7x) + 2 slow (1x)", Hetero.two_tier ~fast:2 ~slow:2 ~fast_rate:7e9 ~slow_rate:1e9);
      ("1 fast (15x) + 1 slow (1x)", Hetero.two_tier ~fast:1 ~slow:1 ~fast_rate:15e9 ~slow_rate:1e9);
    ];
  Table.print table;
  Printf.printf
    "\npaper claim: as nodes become heterogeneous (CPU + accelerator), static\nbulk-synchronous schedules leave the fast units idle at every barrier;\ndynamic rate-aware scheduling stays near the aggregate-rate bound.\n"
