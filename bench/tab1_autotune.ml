(* TAB-1: autotuning the tile size — measured sweep of the packed tiled
   Cholesky on the host (grid search), plus hill climbing from the smallest
   tile over the measured costs (it evaluates each candidate at most once,
   so it never needs more evaluations than the grid), and a
   simulated-machine sweep where the trade-off is parallelism vs per-task
   overhead; its optimum is labelled interior only when both neighbours in
   the sweep are slower. *)

open Xsc_linalg
module Packed = Xsc_tile.Packed
module Cholesky = Xsc_core.Cholesky
module Sim_exec = Xsc_runtime.Sim_exec
module Tuner = Xsc_autotune.Tuner
module Search = Xsc_autotune.Search
module Table = Xsc_util.Table
module Units = Xsc_util.Units
module Rng = Xsc_util.Rng

let host_sweep () =
  let n = 384 in
  let rng = Rng.create 5 in
  let a = Mat.random_spd rng n in
  Printf.printf "measured: sequential packed tiled Cholesky, n=%d on this host:\n\n" n;
  let candidates = [ 8; 16; 24; 32; 48; 64; 96; 128; 192 ] in
  let bench nb () = Cholesky.factor_packed (Packed.D.of_mat ~nb a) in
  let flops _ = float_of_int n ** 3.0 /. 3.0 in
  let measurements, best = Tuner.sweep ~warmup:1 ~repeats:3 ~candidates ~flops ~bench () in
  let worst = List.fold_left (fun acc m -> if m.Tuner.seconds > acc.Tuner.seconds then m else acc)
      (List.hd measurements) measurements in
  let table = Table.create ~headers:[ "nb"; "time"; "Gflop/s"; "vs best" ] in
  List.iter
    (fun m ->
      Table.add_row table
        [
          string_of_int m.Tuner.param;
          Units.seconds m.Tuner.seconds;
          Printf.sprintf "%.3f" (m.Tuner.rate /. 1e9);
          Units.ratio (m.Tuner.seconds /. best.Tuner.seconds);
        ])
    measurements;
  Table.print table;
  Printf.printf "\nbest nb = %d; tuning recovers %s over the worst choice\n"
    best.Tuner.param
    (Units.ratio (worst.Tuner.seconds /. best.Tuner.seconds));
  (measurements, best)

let hill_climb_comparison measurements best =
  (* hill climbing over the measured landscape: how many evaluations does it
     need to find the grid optimum? *)
  let cost_of = List.map (fun m -> (m.Tuner.param, m.Tuner.seconds)) measurements in
  let params = List.map fst cost_of in
  let evals = ref 0 in
  let f p =
    incr evals;
    List.assoc p cost_of
  in
  let neighbours p =
    let sorted = List.sort compare params in
    let rec adjacent = function
      | a :: b :: rest -> if b = p then [ a ] @ (match rest with c :: _ -> [ c ] | [] -> [])
        else if a = p then [ b ]
        else adjacent (b :: rest)
      | _ -> []
    in
    adjacent sorted
  in
  let found = Search.hill_climb ~neighbours ~start:(List.hd params) f in
  Printf.printf "hill climbing: reached nb=%d (grid best %d) with %d evaluations of %d\n"
    found.Search.candidate best.Tuner.param !evals (List.length params)

let simulated_sweep () =
  Printf.printf
    "\nsimulated: 64 workers, n=4096, per-task overhead 5us — small tiles buy\nparallelism but pay overhead; large tiles starve the workers:\n\n";
  let n = 4096 in
  let table = Table.create ~headers:[ "nb"; "tasks"; "makespan"; "utilization" ] in
  let results =
    List.map
      (fun nb ->
        let nt = n / nb in
        let dag = Cholesky.dag_ops ~nt ~nb in
        let cfg = Sim_exec.config ~task_overhead:5e-6 ~workers:64 ~rate:1e9 () in
        let r = Sim_exec.run cfg Sim_exec.List_critical_path dag in
        (nb, nt, Xsc_runtime.Dag.n_tasks dag, r))
      [ 32; 64; 128; 256; 512; 1024; 2048 ]
  in
  List.iter
    (fun (nb, _, tasks, r) ->
      Table.add_row table
        [
          string_of_int nb;
          string_of_int tasks;
          Units.seconds r.Sim_exec.makespan;
          Units.percent r.Sim_exec.utilization;
        ])
    results;
  Table.print table;
  let makespans = Array.of_list (List.map (fun (_, _, _, r) -> r.Sim_exec.makespan) results) in
  let best = ref 0 in
  Array.iteri (fun i m -> if m < makespans.(!best) then best := i) makespans;
  let slower i = i >= 0 && i < Array.length makespans && makespans.(i) > makespans.(!best) in
  let best_nb, _, _, _ = List.nth results !best in
  Printf.printf "\nsimulated optimum: nb = %d (%s)\n" best_nb
    (if slower (!best - 1) && slower (!best + 1) then "interior: both neighbours are slower"
     else "edge: the sweep does not bracket it")

let run () =
  Bk.header "TAB-1: autotuning the tile size";
  let measurements, best = host_sweep () in
  hill_climb_comparison measurements best;
  simulated_sweep ();
  Printf.printf
    "\npaper claim: no single blocking is right across architectures and\nscales; search-based tuning recovers the lost factor automatically.\n"
