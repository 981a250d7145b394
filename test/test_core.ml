(* Tests for Xsc_core: tiled Cholesky/LU/QR and the solver front end. *)

open Xsc_linalg
module Tile = Xsc_tile.Tile
module PD = Xsc_tile.Packed.D
module Cholesky = Xsc_core.Cholesky
module Lu = Xsc_core.Lu
module Qr = Xsc_core.Qr
module Solver = Xsc_core.Solver
module Runtime_api = Xsc_core.Runtime_api
module Dag = Xsc_runtime.Dag
module Rng = Xsc_util.Rng

let qcheck tc = QCheck_alcotest.to_alcotest tc

let spd_system seed n =
  let rng = Rng.create seed in
  let a = Mat.random_spd rng n in
  let x_true = Vec.random rng n in
  (a, x_true, Mat.mul_vec a x_true)

let dd_system seed n =
  let rng = Rng.create seed in
  let a = Mat.random_diag_dominant rng n in
  let x_true = Vec.random rng n in
  (a, x_true, Mat.mul_vec a x_true)

(* ---- tiled Cholesky ---- *)

let prop_cholesky_matches_lapack =
  QCheck.Test.make ~name:"tiled Cholesky factor = LAPACK potrf" ~count:20
    QCheck.(pair (int_range 1 5) (int_range 1 3))
    (fun (nt, nb_sel) ->
      let nb = [| 4; 8; 16 |].(nb_sel - 1) in
      let n = nt * nb in
      let rng = Rng.create ((nt * 100) + nb) in
      let a = Mat.random_spd rng n in
      let t = Tile.of_mat ~nb a in
      Cholesky.factor t;
      let ref_f = Mat.copy a in
      Lapack.potrf ref_f;
      Mat.approx_equal ~tol:1e-8 (Mat.lower ref_f) (Mat.lower (Tile.to_mat t)))

(* Factor a tile-multiple matrix with the packed program under [exec] and
   solve with the packed sweeps: the pieces Solver composes. *)
let packed_solve ~factor ~sweeps ~exec ~nb a b =
  let p = PD.of_mat ~nb a in
  factor ~exec p;
  let x = Array.copy b in
  sweeps p x;
  (PD.to_mat p, x)

let packed_chol =
  packed_solve ~factor:(fun ~exec p -> Cholesky.factor_packed ~exec p) ~sweeps:PD.potrs

let packed_lu =
  packed_solve ~factor:(fun ~exec p -> Lu.factor_packed ~exec p) ~sweeps:PD.getrs_nopiv

(* same kernels in a valid dependence order: bitwise identical factors and
   solves under every executor *)
let check_exec_modes_agree ~solve =
  let f_seq, x_seq = solve Runtime_api.Sequential in
  List.iter
    (fun (name, exec) ->
      let f, x = solve exec in
      Alcotest.(check bool) (name ^ " factor = sequential") true
        (Mat.approx_equal ~tol:0.0 f_seq f);
      Alcotest.(check bool) (name ^ " solve = sequential") true (Vec.dist_inf x_seq x = 0.0))
    [ ("dataflow", Runtime_api.Dataflow 4); ("forkjoin", Runtime_api.Forkjoin 4) ]

let test_cholesky_solve () =
  let a, x_true, b = spd_system 1 96 in
  let _, x = packed_chol ~exec:Runtime_api.Sequential ~nb:32 a b in
  Alcotest.(check bool) "solves" true (Vec.dist_inf x x_true /. Vec.norm_inf x_true < 1e-10)

let test_cholesky_exec_modes_agree () =
  let a, _, b = spd_system 2 64 in
  check_exec_modes_agree ~solve:(fun exec -> packed_chol ~exec ~nb:16 a b)

let test_cholesky_task_count () =
  List.iter
    (fun nt ->
      Alcotest.(check int)
        (Printf.sprintf "count for nt=%d" nt)
        (Cholesky.task_count ~nt)
        (List.length (Cholesky.tasks_ops ~nt ~nb:4)))
    [ 1; 2; 3; 5; 8 ]

let test_cholesky_flops_leading_order () =
  let nt = 16 and nb = 32 in
  let n = float_of_int (nt * nb) in
  let ratio = Cholesky.flops ~nt ~nb /. (n ** 3.0 /. 3.0) in
  Alcotest.(check bool) "within 15% of n^3/3" true (ratio > 0.85 && ratio < 1.15)

let test_cholesky_dag_shape () =
  let dag = Cholesky.dag_ops ~nt:4 ~nb:8 in
  (* nt = 4: depth of the tile Cholesky DAG is 3 nt - 2 = 10 *)
  Alcotest.(check int) "depth 3nt-2" 10 (Dag.depth dag);
  Alcotest.(check bool) "parallelism exists" true
    (Dag.total_flops dag /. Dag.critical_path_flops dag > 1.0)

let test_cholesky_not_spd () =
  let t = Tile.of_mat ~nb:2 (Mat.scale (-1.0) (Mat.identity 4)) in
  Alcotest.check_raises "singular" (Lapack.Singular 0) (fun () -> Cholesky.factor t)

let test_cholesky_rectangular_rejected () =
  let t = Tile.create ~rows:8 ~cols:4 ~nb:4 in
  Alcotest.check_raises "not square"
    (Invalid_argument "Cholesky.tile_interp: matrix not square")
    (fun () -> Cholesky.factor t)

(* ---- tiled LU ---- *)

let prop_lu_matches_lapack =
  QCheck.Test.make ~name:"tiled LU factor = LAPACK getrf_nopiv" ~count:20
    QCheck.(pair (int_range 1 5) (int_range 1 3))
    (fun (nt, nb_sel) ->
      let nb = [| 4; 8; 16 |].(nb_sel - 1) in
      let n = nt * nb in
      let rng = Rng.create ((nt * 50) + nb) in
      let a = Mat.random_diag_dominant rng n in
      let t = Tile.of_mat ~nb a in
      Lu.factor t;
      let ref_f = Mat.copy a in
      Lapack.getrf_nopiv ref_f;
      Mat.approx_equal ~tol:1e-8 ref_f (Tile.to_mat t))

let test_lu_solve () =
  let a, x_true, b = dd_system 3 96 in
  let _, x = packed_lu ~exec:Runtime_api.Sequential ~nb:32 a b in
  Alcotest.(check bool) "solves" true (Vec.dist_inf x x_true /. Vec.norm_inf x_true < 1e-10)

let test_lu_parallel_agrees () =
  let a, _, b = dd_system 4 64 in
  check_exec_modes_agree ~solve:(fun exec -> packed_lu ~exec ~nb:16 a b)

let test_lu_task_count () =
  List.iter
    (fun nt ->
      Alcotest.(check int)
        (Printf.sprintf "count for nt=%d" nt)
        (Lu.task_count ~nt)
        (List.length (Lu.tasks_ops ~nt ~nb:4)))
    [ 1; 2; 3; 5 ]

let test_lu_flops_leading_order () =
  let nt = 16 and nb = 32 in
  let n = float_of_int (nt * nb) in
  let ratio = Lu.flops ~nt ~nb /. (2.0 *. (n ** 3.0) /. 3.0) in
  Alcotest.(check bool) "within 15% of 2n^3/3" true (ratio > 0.85 && ratio < 1.15)

(* ---- tiled LU, incremental pivoting ---- *)

module Lu_inc = Xsc_core.Lu_inc

let prop_lu_inc_solves_general =
  QCheck.Test.make ~name:"incremental-pivoting LU solves general (non-dd) systems" ~count:20
    QCheck.(pair (int_range 1 5) (int_range 1 3))
    (fun (nt, nb_sel) ->
      let nb = [| 4; 8; 16 |].(nb_sel - 1) in
      let n = nt * nb in
      let rng = Rng.create ((nt * 91) + nb) in
      (* general random matrix: partial pivoting would be required *)
      let a = Mat.random rng n n in
      let x_true = Vec.random rng n in
      let b = Mat.mul_vec a x_true in
      let f = Lu_inc.factor_mat ~nb a in
      let x = Lu_inc.solve f b in
      Vec.dist_inf x x_true /. Vec.norm_inf x_true < 1e-7)

let test_lu_inc_vs_lapack () =
  let rng = Rng.create 71 in
  let n = 96 in
  let a = Mat.random rng n n in
  let b = Vec.random rng n in
  let f = Lu_inc.factor_mat ~nb:16 a in
  let x = Lu_inc.solve f b in
  let x_ref = Lapack.lu_solve a b in
  Alcotest.(check bool) "agrees with partial pivoting" true
    (Vec.dist_inf x x_ref /. Vec.norm_inf x_ref < 1e-8)

let test_lu_inc_needs_pivoting () =
  (* a matrix with a zero leading entry: no-pivot LU dies, incremental
     pivoting sails through *)
  let rng = Rng.create 73 in
  let n = 32 in
  let a = Mat.random rng n n in
  Mat.set a 0 0 0.0;
  let x_true = Vec.random rng n in
  let b = Mat.mul_vec a x_true in
  (match Lapack.getrf_nopiv (Mat.copy a) with
  | () -> Alcotest.fail "no-pivot LU should have failed"
  | exception Lapack.Singular 0 -> ());
  let f = Lu_inc.factor_mat ~nb:8 a in
  let x = Lu_inc.solve f b in
  Alcotest.(check bool) "pivoted tile LU solves" true
    (Vec.dist_inf x x_true /. Vec.norm_inf x_true < 1e-8)

let test_lu_inc_parallel_agrees () =
  let rng = Rng.create 79 in
  let a = Mat.random rng 64 64 in
  let b = Vec.random rng 64 in
  let f1 = Lu_inc.factor_mat ~nb:16 a in
  let t2 = Xsc_tile.Tile.of_mat ~nb:16 a in
  let f2 = Lu_inc.factor ~exec:(Runtime_api.Dataflow 4) t2 in
  Alcotest.(check bool) "solutions identical" true
    (Vec.dist_inf (Lu_inc.solve f1 b) (Lu_inc.solve f2 b) = 0.0)

let test_lu_inc_task_count () =
  List.iter
    (fun nt ->
      let t = Tile.create ~rows:(nt * 4) ~cols:(nt * 4) ~nb:4 in
      let f = Lu_inc.create t in
      Alcotest.(check int)
        (Printf.sprintf "count nt=%d" nt)
        (Lu_inc.task_count ~nt)
        (List.length (Lu_inc.tasks f)))
    [ 1; 2; 4; 6 ]

let test_lu_inc_qt_structure () =
  (* flops formula is ~2n^3/3 + lower-order pivot-overhead terms *)
  let nt = 16 and nb = 32 in
  let n = float_of_int (nt * nb) in
  let ratio = Lu_inc.flops ~nt ~nb /. (2.0 *. (n ** 3.0) /. 3.0) in
  (* incremental pivoting costs ~2x the updates of plain LU in this packing *)
  Alcotest.(check bool) "within [1, 2.6] of plain LU flops" true
    (ratio >= 1.0 && ratio < 2.6)

(* ---- tiled QR ---- *)

let test_qr_square_solve () =
  let a, x_true, b = dd_system 5 64 in
  let f = Qr.factor_mat ~nb:16 a in
  let x = Qr.solve f b in
  Alcotest.(check bool) "solves" true (Vec.dist_inf x x_true /. Vec.norm_inf x_true < 1e-9)

let test_qr_least_squares_matches_gels () =
  let rng = Rng.create 6 in
  let m = 96 and n = 32 in
  let a = Mat.random rng m n in
  let b = Vec.random rng m in
  let f = Qr.factor_mat ~nb:16 a in
  let x = Qr.solve f b in
  let x_ref = Lapack.gels a b in
  Alcotest.(check bool) "matches gels" true (Vec.dist_inf x x_ref < 1e-9)

let test_qr_r_matches_householder () =
  let rng = Rng.create 8 in
  let a = Mat.random rng 32 32 in
  let f = Qr.factor_mat ~nb:8 a in
  (* |R| agrees with the Householder R up to row signs *)
  let w = Mat.copy a in
  let _ = Lapack.geqrf w in
  let tiled = Tile.to_mat f.Qr.tiles in
  for i = 0 to 31 do
    for j = i to 31 do
      Alcotest.(check bool) "abs equal" true
        (abs_float (abs_float (Mat.get tiled i j) -. abs_float (Mat.get w i j)) < 1e-8)
    done
  done

let test_qr_parallel_agrees () =
  let rng = Rng.create 9 in
  let a = Mat.random rng 64 64 in
  let b = Vec.random rng 64 in
  let f1 = Qr.factor_mat ~nb:16 a in
  let t2 = Tile.of_mat ~nb:16 a in
  let f2 = Qr.factor ~exec:(Runtime_api.Dataflow 4) t2 in
  Alcotest.(check bool) "solutions identical" true
    (Vec.dist_inf (Qr.solve f1 b) (Qr.solve f2 b) = 0.0)

let test_qr_task_count () =
  let t = Tile.create ~rows:24 ~cols:16 ~nb:8 in
  let f = Qr.create t in
  Alcotest.(check int) "formula matches" (Qr.task_count ~mt:3 ~nt:2)
    (List.length (Qr.tasks f))

let test_qr_requires_tall () =
  let t = Tile.create ~rows:8 ~cols:16 ~nb:8 in
  Alcotest.check_raises "wide rejected" (Invalid_argument "Qr.create: requires mt >= nt")
    (fun () -> ignore (Qr.create t))

(* ---- Batched ---- *)

module Batched = Xsc_core.Batched

let small_batch seed count size =
  let rng = Rng.create seed in
  Array.init count (fun _ -> Mat.random_spd rng size)

let test_batched_potrf_matches_loop () =
  let b1 = small_batch 1 20 10 and b2 = small_batch 1 20 10 in
  Batched.potrf_batch b1;
  Array.iter Lapack.potrf b2;
  Array.iteri
    (fun i m -> Alcotest.(check bool) "same factor" true (Mat.approx_equal ~tol:0.0 m b2.(i)))
    b1

let test_batched_potrf_parallel () =
  let b1 = small_batch 2 30 8 and b2 = small_batch 2 30 8 in
  Batched.potrf_batch ~exec:(Runtime_api.Dataflow 3) b1;
  Batched.potrf_batch b2;
  Array.iteri
    (fun i m -> Alcotest.(check bool) "parallel = sequential" true (Mat.approx_equal ~tol:0.0 m b2.(i)))
    b1

let test_batched_potrf_failure_propagates () =
  let batch = [| Mat.identity 3; Mat.scale (-1.0) (Mat.identity 3) |] in
  Alcotest.check_raises "singular escapes the batch" (Lapack.Singular 0) (fun () ->
      Batched.potrf_batch batch)

let test_batched_chol_solve () =
  let rng = Rng.create 5 in
  let batch = small_batch 6 8 12 in
  let xs_true = Array.init 8 (fun _ -> Vec.random rng 12) in
  let rhs = Array.mapi (fun i m -> Mat.mul_vec m xs_true.(i)) batch in
  let solutions = Batched.chol_solve_batch batch rhs in
  Array.iteri
    (fun i x -> Alcotest.(check bool) "solved" true (Vec.approx_equal ~tol:1e-8 xs_true.(i) x))
    solutions;
  (* inputs preserved *)
  Alcotest.(check bool) "rhs untouched" true
    (Vec.approx_equal ~tol:0.0 rhs.(0) (Mat.mul_vec batch.(0) xs_true.(0)))

let test_batched_flops () =
  let batch = small_batch 7 5 10 in
  Alcotest.(check (float 1e-9)) "sum of potrf flops" (5.0 *. Lapack.potrf_flops 10)
    (Batched.batch_flops_potrf batch);
  Alcotest.(check int) "task list size" 5 (List.length (Batched.tasks_potrf batch))

(* ---- Solver front end ---- *)

let test_solver_spd_with_padding () =
  (* n = 50 is not a multiple of nb = 16: exercises pad_to *)
  let a, x_true, b = spd_system 10 50 in
  let x = Solver.solve_spd ~opts:{ Solver.nb = 16; exec = Runtime_api.Sequential } a b in
  Alcotest.(check int) "unpadded length" 50 (Array.length x);
  Alcotest.(check bool) "solves" true (Vec.dist_inf x x_true /. Vec.norm_inf x_true < 1e-10)

let test_solver_general_dd_path () =
  let a, x_true, b = dd_system 11 40 in
  let x = Solver.solve_general ~opts:{ Solver.nb = 8; exec = Runtime_api.Sequential } a b in
  Alcotest.(check bool) "tiled path solves" true
    (Vec.dist_inf x x_true /. Vec.norm_inf x_true < 1e-9)

let test_solver_general_fallback_path () =
  (* a non-diagonally-dominant but well-conditioned system: falls back to
     partial pivoting and still solves *)
  let rng = Rng.create 12 in
  let a = Mat.random rng 40 40 in
  let x_true = Vec.random rng 40 in
  let b = Mat.mul_vec a x_true in
  let x = Solver.solve_general a b in
  Alcotest.(check bool) "fallback solves" true
    (Vec.dist_inf x x_true /. Vec.norm_inf x_true < 1e-8)

let test_solver_ls () =
  let rng = Rng.create 13 in
  let a = Mat.random rng 64 32 in
  let b = Vec.random rng 64 in
  let x = Solver.solve_ls ~opts:{ Solver.nb = 16; exec = Runtime_api.Sequential } a b in
  Alcotest.(check bool) "matches gels" true (Vec.dist_inf x (Lapack.gels a b) < 1e-9)

let test_solver_mixed () =
  let a, x_true, b = spd_system 14 48 in
  let r = Solver.solve_spd_mixed a b in
  Alcotest.(check bool) "converged" true r.Solver.converged;
  Alcotest.(check bool) "accurate" true
    (Vec.dist_inf r.Solver.x x_true /. Vec.norm_inf x_true < 1e-11);
  (* n = 48 is small, so refinement overhead eats part of the 2x; at bench
     sizes the speedup approaches 2 (see FIG-4) *)
  Alcotest.(check bool) "modelled speedup > 1.2" true (r.Solver.modeled_speedup > 1.2)

let test_solver_protected_clean () =
  let a, x_true, b = spd_system 15 40 in
  let r = Solver.solve_spd_protected a b in
  Alcotest.(check bool) "no corruption" false r.Solver.corruption_detected;
  Alcotest.(check bool) "solves" true
    (Vec.dist_inf r.Solver.x x_true /. Vec.norm_inf x_true < 1e-10)

let test_solver_protected_recovers () =
  let a, x_true, b = spd_system 16 40 in
  let inject l = Mat.set l 20 5 (Mat.get l 20 5 +. 2.0) in
  let r = Solver.solve_spd_protected ~inject a b in
  Alcotest.(check bool) "detected" true r.Solver.corruption_detected;
  Alcotest.(check bool) "recovered row reported" true (r.Solver.recovered_from_row <> None);
  Alcotest.(check bool) "solution correct despite corruption" true
    (Vec.dist_inf r.Solver.x x_true /. Vec.norm_inf x_true < 1e-9)

let test_solver_residual () =
  let a, _, b = spd_system 17 20 in
  let x = Solver.solve_spd a b in
  Alcotest.(check bool) "backward error tiny" true (Solver.residual a x b < 1e-14)

let prop_solver_spd_any_size =
  QCheck.Test.make ~name:"solve_spd correct for arbitrary n and tile size" ~count:25
    QCheck.(pair (int_range 1 80) (int_range 0 3))
    (fun (n, nb_sel) ->
      let nb = [| 8; 16; 24; 64 |].(nb_sel) in
      let rng = Rng.create ((n * 131) + nb) in
      let a = Mat.random_spd rng n in
      let x_true = Vec.random rng n in
      let b = Mat.mul_vec a x_true in
      let x = Solver.solve_spd ~opts:{ Solver.nb; exec = Runtime_api.Sequential } a b in
      Array.length x = n && Solver.residual a x b < 1e-12)

let prop_solver_general_any_size =
  QCheck.Test.make ~name:"solve_general correct for general (pivot-requiring) systems"
    ~count:25
    QCheck.(pair (int_range 1 60) (int_range 0 2))
    (fun (n, nb_sel) ->
      let nb = [| 8; 16; 32 |].(nb_sel) in
      let rng = Rng.create ((n * 137) + nb) in
      let a = Mat.random rng n n in
      let x_true = Vec.random rng n in
      let b = Mat.mul_vec a x_true in
      let x = Solver.solve_general ~opts:{ Solver.nb; exec = Runtime_api.Sequential } a b in
      Solver.residual a x b < 1e-10)

let prop_qr_tall_shapes =
  QCheck.Test.make ~name:"tiled QR least squares = gels across tall shapes" ~count:15
    QCheck.(pair (int_range 1 4) (int_range 1 4))
    (fun (extra, nt) ->
      let nb = 8 in
      let mt = nt + extra in
      let rng = Rng.create ((mt * 11) + nt) in
      let a = Mat.random rng (mt * nb) (nt * nb) in
      let b = Vec.random rng (mt * nb) in
      let f = Qr.factor_mat ~nb a in
      let x = Qr.solve f b in
      Vec.dist_inf x (Lapack.gels a b) < 1e-8)

(* One answer per payload: Solver's SPD and diagonally dominant solves
   equal the server's plan run sequentially, bit for bit, for any size,
   tile size and executor. *)
let prop_solver_equals_route =
  QCheck.Test.make ~name:"solver = Route.direct bitwise (spd, dd lu)" ~count:40
    QCheck.(triple (int_range 1 200) (int_range 0 3) (int_range 0 2))
    (fun (n, nb_sel, exec_sel) ->
      let nb = [| 8; 16; 32; 64 |].(nb_sel) in
      let exec =
        [| Runtime_api.Sequential; Runtime_api.Dataflow 2; Runtime_api.Forkjoin 2 |].(exec_sel)
      in
      let opts = { Solver.nb; exec } in
      let server payload =
        match Xsc_serve.Route.direct ~nb payload with
        | Xsc_serve.Request.Vector x -> x
        | Xsc_serve.Request.Matrix _ -> assert false
      in
      let a, _, b = spd_system ((n * 7) + nb) n in
      let d, _, c = dd_system ((n * 11) + nb) n in
      Vec.dist_inf (Solver.solve_spd ~opts a b) (server (Xsc_serve.Request.Spd_solve (a, b))) = 0.0
      && Vec.dist_inf (Solver.solve_general ~opts d c) (server (Xsc_serve.Request.Lu_solve (d, c)))
         = 0.0)

let test_solver_spd_not_spd () =
  let b = Array.make 6 1.0 in
  Alcotest.check_raises "packed potrf's exception" (Pblas.Singular 0) (fun () ->
      ignore
        (Solver.solve_spd ~opts:{ Solver.nb = 4; exec = Runtime_api.Sequential }
           (Mat.scale (-1.0) (Mat.identity 6)) b))

let test_solver_with_workers () =
  let opts = Solver.with_workers ~nb:16 4 in
  Alcotest.(check bool) "dataflow exec" true (opts.Solver.exec = Runtime_api.Dataflow 4);
  let a, x_true, b = spd_system 18 64 in
  let x = Solver.solve_spd ~opts a b in
  Alcotest.(check bool) "parallel solve" true
    (Vec.dist_inf x x_true /. Vec.norm_inf x_true < 1e-10)

let () =
  Alcotest.run "xsc_core"
    [
      ( "cholesky",
        [
          qcheck prop_cholesky_matches_lapack;
          Alcotest.test_case "solve" `Quick test_cholesky_solve;
          Alcotest.test_case "exec modes agree" `Quick test_cholesky_exec_modes_agree;
          Alcotest.test_case "task count" `Quick test_cholesky_task_count;
          Alcotest.test_case "flops leading order" `Quick test_cholesky_flops_leading_order;
          Alcotest.test_case "dag shape" `Quick test_cholesky_dag_shape;
          Alcotest.test_case "not SPD" `Quick test_cholesky_not_spd;
          Alcotest.test_case "rectangular rejected" `Quick test_cholesky_rectangular_rejected;
        ] );
      ( "lu",
        [
          qcheck prop_lu_matches_lapack;
          Alcotest.test_case "solve" `Quick test_lu_solve;
          Alcotest.test_case "parallel agrees" `Quick test_lu_parallel_agrees;
          Alcotest.test_case "task count" `Quick test_lu_task_count;
          Alcotest.test_case "flops leading order" `Quick test_lu_flops_leading_order;
        ] );
      ( "lu incremental pivoting",
        [
          qcheck prop_lu_inc_solves_general;
          Alcotest.test_case "vs lapack" `Quick test_lu_inc_vs_lapack;
          Alcotest.test_case "needs pivoting" `Quick test_lu_inc_needs_pivoting;
          Alcotest.test_case "parallel agrees" `Quick test_lu_inc_parallel_agrees;
          Alcotest.test_case "task count" `Quick test_lu_inc_task_count;
          Alcotest.test_case "flops" `Quick test_lu_inc_qt_structure;
        ] );
      ( "qr",
        [
          Alcotest.test_case "square solve" `Quick test_qr_square_solve;
          Alcotest.test_case "least squares = gels" `Quick test_qr_least_squares_matches_gels;
          Alcotest.test_case "R matches householder" `Quick test_qr_r_matches_householder;
          Alcotest.test_case "parallel agrees" `Quick test_qr_parallel_agrees;
          Alcotest.test_case "task count" `Quick test_qr_task_count;
          Alcotest.test_case "requires tall" `Quick test_qr_requires_tall;
        ] );
      ( "batched",
        [
          Alcotest.test_case "potrf = loop" `Quick test_batched_potrf_matches_loop;
          Alcotest.test_case "parallel = sequential" `Quick test_batched_potrf_parallel;
          Alcotest.test_case "failure propagates" `Quick test_batched_potrf_failure_propagates;
          Alcotest.test_case "chol solve batch" `Quick test_batched_chol_solve;
          Alcotest.test_case "flops/tasks" `Quick test_batched_flops;
        ] );
      ( "solver",
        [
          Alcotest.test_case "spd with padding" `Quick test_solver_spd_with_padding;
          Alcotest.test_case "general dd path" `Quick test_solver_general_dd_path;
          Alcotest.test_case "general fallback" `Quick test_solver_general_fallback_path;
          Alcotest.test_case "least squares" `Quick test_solver_ls;
          Alcotest.test_case "mixed precision" `Quick test_solver_mixed;
          Alcotest.test_case "protected clean" `Quick test_solver_protected_clean;
          Alcotest.test_case "protected recovers" `Quick test_solver_protected_recovers;
          Alcotest.test_case "residual" `Quick test_solver_residual;
          Alcotest.test_case "with_workers" `Quick test_solver_with_workers;
          qcheck prop_solver_equals_route;
          Alcotest.test_case "spd not SPD raises Pblas.Singular" `Quick test_solver_spd_not_spd;
          qcheck prop_solver_spd_any_size;
          qcheck prop_solver_general_any_size;
          qcheck prop_qr_tall_shapes;
        ] );
    ]
