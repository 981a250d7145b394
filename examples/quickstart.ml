(* Quickstart: factor and solve a dense SPD system with the tiled Cholesky,
   sequentially and on the dynamic multicore executor, and inspect the task
   DAG that the runtime schedules.

   Run with: dune exec examples/quickstart.exe *)

open Xsc_linalg
module Solver = Xsc_core.Solver
module Cholesky = Xsc_core.Cholesky
module Dag = Xsc_runtime.Dag

let () =
  (* 1. build a reproducible SPD system A x = b *)
  let rng = Xsc_util.Rng.create 42 in
  let n = 500 in
  let a = Mat.random_spd rng n in
  let x_true = Vec.random rng n in
  let b = Mat.mul_vec a x_true in
  Printf.printf "system: %d x %d SPD, ||A||_inf = %.3g\n\n" n n (Mat.norm_inf a);

  (* 2. the one-call API (pads n=500 up to the tile size internally) *)
  let x = Solver.solve_spd a b in
  Printf.printf "solve_spd:             backward error %.2e, forward error %.2e\n"
    (Solver.residual a x b)
    (Vec.dist_inf x x_true /. Vec.norm_inf x_true);

  (* 3. the same solve on the dynamic dataflow executor *)
  let workers = max 2 (Xsc_runtime.Real_exec.default_workers ()) in
  let x_par = Solver.solve_spd ~opts:(Solver.with_workers workers) a b in
  Printf.printf "solve_spd (%d domains): backward error %.2e (bitwise equal: %b)\n\n" workers
    (Solver.residual a x_par b)
    (x = x_par);

  (* 4. look under the hood: the task DAG of the tiled factorization *)
  let nb = 50 in
  let dag = Cholesky.dag_ops ~nt:((n + nb - 1) / nb) ~nb in
  Printf.printf "tiled Cholesky DAG (nb=50): %d tasks, %d edges, depth %d\n"
    (Dag.n_tasks dag) (Dag.n_edges dag) (Dag.depth dag);
  Printf.printf "average parallelism (total flops / critical path): %.1f\n"
    (Dag.total_flops dag /. Dag.critical_path_flops dag);

  (* 5. what a simulated 16-worker machine would do with that DAG *)
  let cfg = Xsc_runtime.Sim_exec.config ~workers:16 ~rate:1e9 () in
  let bsp = Xsc_runtime.Sim_exec.run cfg Xsc_runtime.Sim_exec.Bsp dag in
  let dyn = Xsc_runtime.Sim_exec.run cfg Xsc_runtime.Sim_exec.List_critical_path dag in
  Printf.printf
    "\nsimulated on 16 workers @ 1 Gflop/s:\n  fork-join: %s (%.0f%% busy)\n  dataflow : %s (%.0f%% busy)\n"
    (Xsc_util.Units.seconds bsp.Xsc_runtime.Sim_exec.makespan)
    (100.0 *. bsp.Xsc_runtime.Sim_exec.utilization)
    (Xsc_util.Units.seconds dyn.Xsc_runtime.Sim_exec.makespan)
    (100.0 *. dyn.Xsc_runtime.Sim_exec.utilization)
