(* Tests for Xsc_sparse: CSR, stencils, Gauss-Seidel, CG variants. *)

open Xsc_linalg
module Csr = Xsc_sparse.Csr
module Stencil = Xsc_sparse.Stencil
module Cg = Xsc_sparse.Cg
module Rng = Xsc_util.Rng

let qcheck tc = QCheck_alcotest.to_alcotest tc

(* Small Poisson fixtures for the solver tests; the library's generators
   are the 3-D stencils the benchmarks run. With zero flow the upwind
   convection-diffusion operator is the 5-point Laplacian. *)
let poisson_1d n =
  Csr.of_triplets ~rows:n ~cols:n
    (List.concat
       (List.init n (fun i ->
            ((i, i, 2.0) :: (if i > 0 then [ (i, i - 1, -1.0) ] else []))
            @ if i < n - 1 then [ (i, i + 1, -1.0) ] else [])))

let poisson_2d n = Stencil.convection_diffusion_2d ~cx:0.0 ~cy:0.0 n

(* ---- Csr ---- *)

let test_of_triplets_basic () =
  let a = Csr.of_triplets ~rows:2 ~cols:3 [ (0, 1, 2.0); (1, 0, 3.0); (1, 2, 4.0) ] in
  Alcotest.(check int) "nnz" 3 (Csr.nnz a);
  Alcotest.(check (float 0.0)) "get (0,1)" 2.0 (Csr.get a 0 1);
  Alcotest.(check (float 0.0)) "get (1,2)" 4.0 (Csr.get a 1 2);
  Alcotest.(check (float 0.0)) "absent is 0" 0.0 (Csr.get a 0 0)

let test_of_triplets_duplicates_sum () =
  let a = Csr.of_triplets ~rows:2 ~cols:2 [ (0, 0, 1.5); (0, 0, 2.5) ] in
  Alcotest.(check int) "merged" 1 (Csr.nnz a);
  Alcotest.(check (float 0.0)) "summed" 4.0 (Csr.get a 0 0)

let test_of_triplets_bounds () =
  Alcotest.check_raises "oob" (Invalid_argument "Csr.of_triplets: coordinate out of bounds")
    (fun () -> ignore (Csr.of_triplets ~rows:2 ~cols:2 [ (2, 0, 1.0) ]))

let prop_dense_roundtrip =
  QCheck.Test.make ~name:"of_dense . to_dense is the identity" ~count:40
    QCheck.(pair (int_range 1 10) (int_range 1 10))
    (fun (m, n) ->
      let rng = Rng.create ((m * 17) + n) in
      (* sparse-ish random matrix *)
      let a =
        Mat.init m n (fun _ _ -> if Rng.uniform rng < 0.4 then Rng.uniform rng -. 0.5 else 0.0)
      in
      Mat.approx_equal ~tol:0.0 a (Csr.to_dense (Csr.of_dense a)))

let prop_spmv_matches_dense =
  QCheck.Test.make ~name:"sparse SpMV = dense gemv" ~count:40
    QCheck.(pair (int_range 1 12) (int_range 1 12))
    (fun (m, n) ->
      let rng = Rng.create ((m * 23) + n) in
      let a =
        Mat.init m n (fun _ _ -> if Rng.uniform rng < 0.5 then Rng.uniform rng -. 0.5 else 0.0)
      in
      let x = Vec.random rng n in
      Vec.approx_equal ~tol:1e-10 (Mat.mul_vec a x) (Csr.mul_vec (Csr.of_dense a) x))

let test_diagonal () =
  let a = Csr.of_triplets ~rows:3 ~cols:3 [ (0, 0, 5.0); (1, 2, 1.0); (2, 2, 7.0) ] in
  Alcotest.(check (array (float 0.0))) "diag" [| 5.0; 0.0; 7.0 |] (Csr.diagonal a)

let test_symgs_reduces_residual () =
  let a = poisson_2d 8 in
  let rng = Rng.create 3 in
  let b = Vec.random rng a.Csr.rows in
  let x = Array.make a.Csr.rows 0.0 in
  let residual x =
    let r = Csr.mul_vec a x in
    Vec.axpy (-1.0) b r;
    Vec.nrm2 r
  in
  let r0 = residual x in
  Csr.symgs_sweep a ~b ~x;
  let r1 = residual x in
  Csr.symgs_sweep a ~b ~x;
  let r2 = residual x in
  Alcotest.(check bool) "first sweep reduces" true (r1 < r0);
  Alcotest.(check bool) "second sweep reduces" true (r2 < r1)

let test_jacobi_reduces_residual () =
  let a = poisson_2d 8 in
  let rng = Rng.create 7 in
  let b = Vec.random rng a.Csr.rows in
  let x = Array.make a.Csr.rows 0.0 in
  let residual x =
    let r = Csr.mul_vec a x in
    Vec.axpy (-1.0) b r;
    Vec.nrm2 r
  in
  let r0 = residual x in
  Csr.jacobi_sweep a ~b ~x;
  let r1 = residual x in
  Csr.jacobi_sweep a ~b ~x;
  let r2 = residual x in
  Alcotest.(check bool) "monotone" true (r2 < r1 && r1 < r0);
  Alcotest.check_raises "zero diag" (Invalid_argument "Csr.jacobi_sweep: zero diagonal")
    (fun () ->
      let bad = Csr.of_triplets ~rows:2 ~cols:2 [ (0, 1, 1.0); (1, 0, 1.0) ] in
      Csr.jacobi_sweep bad ~b:[| 1.0; 1.0 |] ~x:[| 0.0; 0.0 |])

let test_symgs_zero_diag () =
  let a = Csr.of_triplets ~rows:2 ~cols:2 [ (0, 1, 1.0); (1, 0, 1.0) ] in
  Alcotest.check_raises "zero diag" (Invalid_argument "Csr.symgs_sweep: zero diagonal")
    (fun () -> Csr.symgs_sweep a ~b:[| 1.0; 1.0 |] ~x:[| 0.0; 0.0 |])

let test_is_symmetric () =
  Alcotest.(check bool) "poisson symmetric" true (Csr.is_symmetric (poisson_2d 5));
  let asym = Csr.of_triplets ~rows:2 ~cols:2 [ (0, 1, 1.0) ] in
  Alcotest.(check bool) "asym detected" false (Csr.is_symmetric asym)

(* ---- Stencil ---- *)

let test_poisson_1d_structure () =
  let a = poisson_1d 5 in
  Alcotest.(check int) "nnz 3n-2" 13 (Csr.nnz a);
  Alcotest.(check (float 0.0)) "diag" 2.0 (Csr.get a 2 2);
  Alcotest.(check (float 0.0)) "off" (-1.0) (Csr.get a 2 3)

let test_poisson_2d_structure () =
  let n = 4 in
  let a = poisson_2d n in
  Alcotest.(check int) "rows" (n * n) a.Csr.rows;
  (* nnz = 5 n^2 - 4n *)
  Alcotest.(check int) "nnz" ((5 * n * n) - (4 * n)) (Csr.nnz a);
  Alcotest.(check bool) "symmetric" true (Csr.is_symmetric a)

let test_poisson_3d_structure () =
  let n = 3 in
  let a = Stencil.poisson_3d n in
  Alcotest.(check int) "rows" (n * n * n) a.Csr.rows;
  Alcotest.(check int) "nnz" ((7 * n * n * n) - (6 * n * n)) (Csr.nnz a);
  Alcotest.(check bool) "symmetric" true (Csr.is_symmetric a)

let test_hpcg_27pt_structure () =
  let n = 3 in
  let a = Stencil.hpcg_27pt n in
  Alcotest.(check int) "rows" 27 a.Csr.rows;
  (* centre row of a 3^3 grid has all 27 entries *)
  let centre = Stencil.grid_index ~n 1 1 1 in
  Alcotest.(check (float 0.0)) "diag 26" 26.0 (Csr.get a centre centre);
  Alcotest.(check int) "centre row full"
    27
    (a.Csr.row_ptr.(centre + 1) - a.Csr.row_ptr.(centre));
  Alcotest.(check bool) "symmetric" true (Csr.is_symmetric a);
  (* diagonally dominant-ish SPD: Cholesky of the dense form succeeds *)
  let d = Csr.to_dense a in
  Lapack.potrf d

(* The 3-D stencils assemble CSR directly (no triplets) for O(nnz) cost;
   their contract is bit-identity with what [of_triplets] builds from the
   same entries — structural equality over the whole record, not just
   matching values. *)
let test_poisson_3d_matches_triplet_assembly () =
  let n = 5 in
  let idx = Stencil.grid_index ~n in
  let ts = ref [] in
  for x = 0 to n - 1 do
    for y = 0 to n - 1 do
      for z = 0 to n - 1 do
        let i = idx x y z in
        ts := (i, i, 6.0) :: !ts;
        if x > 0 then ts := (i, idx (x - 1) y z, -1.0) :: !ts;
        if x < n - 1 then ts := (i, idx (x + 1) y z, -1.0) :: !ts;
        if y > 0 then ts := (i, idx x (y - 1) z, -1.0) :: !ts;
        if y < n - 1 then ts := (i, idx x (y + 1) z, -1.0) :: !ts;
        if z > 0 then ts := (i, idx x y (z - 1), -1.0) :: !ts;
        if z < n - 1 then ts := (i, idx x y (z + 1), -1.0) :: !ts
      done
    done
  done;
  let nn = n * n * n in
  let reference = Csr.of_triplets ~rows:nn ~cols:nn !ts in
  Alcotest.(check bool) "poisson_3d bit-identical to triplet path" true
    (Stencil.poisson_3d n = reference)

let test_hpcg_27pt_matches_triplet_assembly () =
  let n = 4 in
  let idx = Stencil.grid_index ~n in
  let ts = ref [] in
  for x = 0 to n - 1 do
    for y = 0 to n - 1 do
      for z = 0 to n - 1 do
        let i = idx x y z in
        for dx = -1 to 1 do
          for dy = -1 to 1 do
            for dz = -1 to 1 do
              let nx = x + dx and ny = y + dy and nz = z + dz in
              if nx >= 0 && nx < n && ny >= 0 && ny < n && nz >= 0 && nz < n
              then
                ts :=
                  (if dx = 0 && dy = 0 && dz = 0 then (i, i, 26.0)
                   else (i, idx nx ny nz, -1.0))
                  :: !ts
            done
          done
        done
      done
    done
  done;
  let nn = n * n * n in
  let reference = Csr.of_triplets ~rows:nn ~cols:nn !ts in
  Alcotest.(check bool) "hpcg_27pt bit-identical to triplet path" true
    (Stencil.hpcg_27pt n = reference)

let test_exact_rhs () =
  let a = poisson_2d 4 in
  let x, b = Stencil.exact_rhs a in
  Alcotest.(check bool) "x is ones" true (Array.for_all (fun v -> v = 1.0) x);
  Alcotest.(check bool) "b = A x" true (Vec.approx_equal ~tol:0.0 (Csr.mul_vec a x) b)

(* ---- Cg ---- *)

let cg_test_problem () =
  let a = Stencil.poisson_3d 5 in
  let x_exact, b = Stencil.exact_rhs a in
  (a, x_exact, b)

let test_cg_classic_converges () =
  let a, x_exact, b = cg_test_problem () in
  let r = Cg.solve a b in
  Alcotest.(check bool) "converged" true r.Cg.converged;
  Alcotest.(check bool) "accurate" true (Vec.dist_inf r.Cg.x x_exact < 1e-8);
  Alcotest.(check bool) "iterations < n (CG property)" true (r.Cg.iterations < a.Csr.rows)

let test_cg_variants_agree () =
  let a, x_exact, b = cg_test_problem () in
  let rc = Cg.solve ~variant:Cg.Classic a b in
  let rg = Cg.solve ~variant:Cg.Chronopoulos_gear a b in
  let rp = Cg.solve ~variant:Cg.Pipelined a b in
  List.iter
    (fun (name, r) ->
      Alcotest.(check bool) (name ^ " accurate") true (Vec.dist_inf r.Cg.x x_exact < 1e-7))
    [ ("classic", rc); ("cg3", rg); ("pipelined", rp) ];
  (* same Krylov method: iteration counts agree to within a couple *)
  Alcotest.(check bool) "iteration counts close" true
    (abs (rc.Cg.iterations - rg.Cg.iterations) <= 2
    && abs (rc.Cg.iterations - rp.Cg.iterations) <= 2)

let test_cg_sync_counts () =
  let a, _, b = cg_test_problem () in
  let rc = Cg.solve ~variant:Cg.Classic a b in
  let rg = Cg.solve ~variant:Cg.Chronopoulos_gear a b in
  let rp = Cg.solve ~variant:Cg.Pipelined a b in
  (* classic: 2 blocking reductions/iteration (+1 initial); fused: 1 *)
  Alcotest.(check bool) "classic ~2 per iter" true
    (rc.Cg.sync_points >= 2 * rc.Cg.iterations);
  Alcotest.(check bool) "cg3 ~1 per iter" true
    (rg.Cg.sync_points <= rg.Cg.iterations + 2);
  Alcotest.(check bool) "pipelined ~1 per iter" true
    (rp.Cg.sync_points <= rp.Cg.iterations + 2);
  Alcotest.(check bool) "fused halves the synchronisation" true
    (float_of_int rc.Cg.sync_points /. float_of_int rg.Cg.sync_points > 1.5)

let test_cg_preconditioned_fewer_iterations () =
  let a = poisson_2d 16 in
  let _, b = Stencil.exact_rhs a in
  let plain = Cg.solve a b in
  let pre = Cg.solve ~precond:(Cg.symgs_preconditioner a) a b in
  Alcotest.(check bool) "both converge" true (plain.Cg.converged && pre.Cg.converged);
  Alcotest.(check bool) "preconditioning helps" true
    (pre.Cg.iterations < plain.Cg.iterations)

let test_cg_precond_only_classic () =
  let a, _, b = cg_test_problem () in
  Alcotest.check_raises "fused + precond rejected"
    (Invalid_argument "Cg.solve: preconditioning is supported for the Classic variant only")
    (fun () ->
      ignore
        (Cg.solve ~variant:Cg.Pipelined ~precond:(Cg.symgs_preconditioner a) a b))

let test_cg_x0 () =
  let a, x_exact, b = cg_test_problem () in
  (* starting at the solution: zero iterations needed *)
  let r = Cg.solve ~x0:x_exact a b in
  Alcotest.(check bool) "immediate convergence" true (r.Cg.iterations <= 1);
  Alcotest.(check bool) "still accurate" true (Vec.dist_inf r.Cg.x x_exact < 1e-8)

let test_cg_max_iter_respected () =
  let a, _, b = cg_test_problem () in
  let r = Cg.solve ~max_iter:3 a b in
  Alcotest.(check bool) "stopped early" true (r.Cg.iterations <= 3);
  Alcotest.(check bool) "not converged" true (not r.Cg.converged)

let test_cg_dimension_checks () =
  let a = poisson_1d 4 in
  Alcotest.check_raises "rhs" (Invalid_argument "Cg.solve: dimension mismatch") (fun () ->
      ignore (Cg.solve a [| 1.0 |]))

let prop_cg_solves_1d =
  QCheck.Test.make ~name:"CG solves 1-D Poisson for many sizes" ~count:20
    QCheck.(int_range 2 60)
    (fun n ->
      let a = poisson_1d n in
      let x_exact, b = Stencil.exact_rhs a in
      let r = Cg.solve a b in
      r.Cg.converged && Vec.dist_inf r.Cg.x x_exact < 1e-6)

(* ---- Gmres ---- *)

module Gmres = Xsc_sparse.Gmres

let test_gmres_solves_poisson () =
  let a = poisson_2d 10 in
  let x_exact, b = Stencil.exact_rhs a in
  let r = Gmres.solve a b in
  Alcotest.(check bool) "converged" true r.Gmres.converged;
  Alcotest.(check bool) "accurate" true (Vec.dist_inf r.Gmres.x x_exact < 1e-7)

let test_gmres_nonsymmetric () =
  let a = Stencil.convection_diffusion_2d ~cx:3.0 ~cy:1.0 12 in
  Alcotest.(check bool) "problem is nonsymmetric" false (Csr.is_symmetric ~tol:1e-12 a);
  let x_exact, b = Stencil.exact_rhs a in
  let r = Gmres.solve a b in
  Alcotest.(check bool) "converged" true r.Gmres.converged;
  Alcotest.(check bool) "accurate" true (Vec.dist_inf r.Gmres.x x_exact < 1e-7)

let test_gmres_restart_respected () =
  let a = Stencil.convection_diffusion_2d 12 in
  let _, b = Stencil.exact_rhs a in
  let r = Gmres.solve ~restart:5 ~tol:1e-12 a b in
  Alcotest.(check bool) "converged with short restarts" true r.Gmres.converged;
  Alcotest.(check bool) "restarted more than once" true (r.Gmres.restarts > 1)

let test_gmres_preconditioned () =
  let a = Stencil.convection_diffusion_2d 16 in
  let _, b = Stencil.exact_rhs a in
  let plain = Gmres.solve ~restart:20 a b in
  let pre = Gmres.solve ~restart:20 ~precond:(Cg.symgs_preconditioner a) a b in
  Alcotest.(check bool) "both converge" true (plain.Gmres.converged && pre.Gmres.converged);
  Alcotest.(check bool)
    (Printf.sprintf "SymGS cuts iterations (%d -> %d)" plain.Gmres.iterations
       pre.Gmres.iterations)
    true
    (pre.Gmres.iterations < plain.Gmres.iterations)

let test_gmres_sync_growth () =
  (* GMRES pays O(j) reductions per Arnoldi step vs CG's constant — the
     CA-Krylov motivation *)
  let a = poisson_2d 12 in
  let _, b = Stencil.exact_rhs a in
  let g = Gmres.solve ~restart:60 a b in
  let c = Cg.solve a b in
  let g_per_iter = float_of_int g.Gmres.sync_points /. float_of_int g.Gmres.iterations in
  let c_per_iter = float_of_int c.Cg.sync_points /. float_of_int c.Cg.iterations in
  Alcotest.(check bool)
    (Printf.sprintf "gmres %.1f syncs/iter vs cg %.1f" g_per_iter c_per_iter)
    true
    (g_per_iter > 2.0 *. c_per_iter)

let test_gmres_x0_and_validation () =
  let a = poisson_2d 6 in
  let x_exact, b = Stencil.exact_rhs a in
  let r = Gmres.solve ~x0:x_exact a b in
  Alcotest.(check bool) "immediate convergence from the solution" true
    (r.Gmres.converged && r.Gmres.iterations = 0);
  Alcotest.check_raises "restart" (Invalid_argument "Gmres.solve: restart must be >= 1")
    (fun () -> ignore (Gmres.solve ~restart:0 a b))

(* ---- Mg ---- *)

module Mg = Xsc_sparse.Mg

let test_mg_hierarchy () =
  let mg = Mg.create ~levels:4 16 in
  Alcotest.(check int) "4 levels (16, 8, 4, 2)" 4 (Mg.levels mg);
  Alcotest.(check int) "fine matrix size" (16 * 16 * 16) (Mg.fine_matrix mg).Csr.rows;
  (* odd grid stops coarsening *)
  let mg6 = Mg.create ~levels:4 6 in
  Alcotest.(check int) "6 -> 6,3 stops at 2 levels" 2 (Mg.levels mg6)

let test_mg_vcycle_reduces_residual () =
  let mg = Mg.create 8 in
  let a = Mg.fine_matrix mg in
  let _, b = Stencil.exact_rhs a in
  let resid x =
    let r = Csr.mul_vec a x in
    Vec.axpy (-1.0) b r;
    Vec.nrm2 r
  in
  let r0 = resid (Array.make a.Csr.rows 0.0) in
  (* the stepper starts from a zero guess and runs one V-cycle per step *)
  let s = Mg.stepper mg b in
  let cycle () =
    Mg.step s 1;
    resid (fst (Mg.solution s))
  in
  let r1 = cycle () in
  let r2 = cycle () in
  Alcotest.(check bool) "cycle 1 contracts" true (r1 < 0.5 *. r0);
  Alcotest.(check bool) "cycle 2 contracts" true (r2 < 0.5 *. r1)

let test_mg_solve () =
  let mg = Mg.create 8 in
  let a = Mg.fine_matrix mg in
  let x_exact, b = Stencil.exact_rhs a in
  let x, cycles = Mg.solve ~tol:1e-10 mg b in
  Alcotest.(check bool) "converged" true (cycles < 200);
  Alcotest.(check bool) "accurate" true (Vec.dist_inf x x_exact < 1e-7)

let test_mg_jacobi_smoother () =
  let mg = Mg.create ~smoother:Mg.Jacobi 8 in
  let a = Mg.fine_matrix mg in
  let x_exact, b = Stencil.exact_rhs a in
  let x, cycles = Mg.solve ~tol:1e-10 mg b in
  Alcotest.(check bool) "jacobi-smoothed MG converges" true (cycles < 200);
  Alcotest.(check bool) "accurate" true (Vec.dist_inf x x_exact < 1e-7)

let test_mg_preconditioned_cg () =
  let mg = Mg.create ~stencil:Stencil.poisson_3d 16 in
  let a = Mg.fine_matrix mg in
  let x_exact, b = Stencil.exact_rhs a in
  let plain = Cg.solve ~tol:1e-10 a b in
  let pre = Cg.solve ~precond:(Mg.preconditioner mg) ~tol:1e-10 a b in
  Alcotest.(check bool) "both accurate" true
    (Vec.dist_inf plain.Cg.x x_exact < 1e-6 && Vec.dist_inf pre.Cg.x x_exact < 1e-6);
  Alcotest.(check bool)
    (Printf.sprintf "MG cuts iterations (%d -> %d)" plain.Cg.iterations pre.Cg.iterations)
    true
    (pre.Cg.iterations < plain.Cg.iterations)

let test_modeled_iteration_time_ordering () =
  let net = Xsc_simmachine.Network.create (Xsc_simmachine.Topology.of_spec "fattree" 4096) in
  let spmv_time = 1e-4 and vector_time = 2e-5 in
  let time v = Cg.modeled_iteration_time v ~network:net ~ranks:4096 ~spmv_time ~vector_time in
  Alcotest.(check bool) "classic > cg3 > pipelined" true
    (time Cg.Classic > time Cg.Chronopoulos_gear
    && time Cg.Chronopoulos_gear > time Cg.Pipelined)

let test_modeled_sstep_time () =
  (* in a latency-dominated regime, growing s keeps cutting the amortised
     synchronisation cost *)
  let net =
    Xsc_simmachine.Network.create ~alpha:1e-5 (Xsc_simmachine.Topology.of_spec "fattree" 65536)
  in
  let t s =
    Cg.modeled_sstep_iteration_time ~s ~network:net ~ranks:65536 ~spmv_time:1e-6
      ~vector_time:1e-7
  in
  Alcotest.(check bool) "monotone in s when latency-bound" true (t 8 < t 4 && t 4 < t 2 && t 2 < t 1);
  Alcotest.check_raises "s >= 1" (Invalid_argument "Cg.modeled_sstep_iteration_time: s must be >= 1")
    (fun () -> ignore (t 0))

let test_variant_names () =
  Alcotest.(check string) "classic" "classic" (Cg.variant_name Cg.Classic);
  Alcotest.(check string) "cg3" "chronopoulos-gear" (Cg.variant_name Cg.Chronopoulos_gear);
  Alcotest.(check string) "pipelined" "pipelined" (Cg.variant_name Cg.Pipelined)

let () =
  Alcotest.run "xsc_sparse"
    [
      ( "csr",
        [
          Alcotest.test_case "of_triplets" `Quick test_of_triplets_basic;
          Alcotest.test_case "duplicates sum" `Quick test_of_triplets_duplicates_sum;
          Alcotest.test_case "bounds" `Quick test_of_triplets_bounds;
          qcheck prop_dense_roundtrip;
          qcheck prop_spmv_matches_dense;
          Alcotest.test_case "diagonal" `Quick test_diagonal;
          Alcotest.test_case "symgs reduces residual" `Quick test_symgs_reduces_residual;
          Alcotest.test_case "jacobi reduces residual" `Quick test_jacobi_reduces_residual;
          Alcotest.test_case "symgs zero diag" `Quick test_symgs_zero_diag;
          Alcotest.test_case "is_symmetric" `Quick test_is_symmetric;
        ] );
      ( "stencil",
        [
          Alcotest.test_case "poisson 1d" `Quick test_poisson_1d_structure;
          Alcotest.test_case "poisson 2d" `Quick test_poisson_2d_structure;
          Alcotest.test_case "poisson 3d" `Quick test_poisson_3d_structure;
          Alcotest.test_case "hpcg 27pt" `Quick test_hpcg_27pt_structure;
          Alcotest.test_case "poisson 3d direct assembly bit-identical" `Quick
            test_poisson_3d_matches_triplet_assembly;
          Alcotest.test_case "hpcg 27pt direct assembly bit-identical" `Quick
            test_hpcg_27pt_matches_triplet_assembly;
          Alcotest.test_case "exact rhs" `Quick test_exact_rhs;
        ] );
      ( "cg",
        [
          Alcotest.test_case "classic converges" `Quick test_cg_classic_converges;
          Alcotest.test_case "variants agree" `Quick test_cg_variants_agree;
          Alcotest.test_case "sync counts" `Quick test_cg_sync_counts;
          Alcotest.test_case "preconditioning helps" `Quick
            test_cg_preconditioned_fewer_iterations;
          Alcotest.test_case "precond only classic" `Quick test_cg_precond_only_classic;
          Alcotest.test_case "x0" `Quick test_cg_x0;
          Alcotest.test_case "max_iter" `Quick test_cg_max_iter_respected;
          Alcotest.test_case "dimension checks" `Quick test_cg_dimension_checks;
          qcheck prop_cg_solves_1d;
          Alcotest.test_case "modeled time ordering" `Quick
            test_modeled_iteration_time_ordering;
          Alcotest.test_case "s-step model" `Quick test_modeled_sstep_time;
          Alcotest.test_case "variant names" `Quick test_variant_names;
        ] );
      ( "gmres",
        [
          Alcotest.test_case "solves poisson" `Quick test_gmres_solves_poisson;
          Alcotest.test_case "nonsymmetric" `Quick test_gmres_nonsymmetric;
          Alcotest.test_case "restart respected" `Quick test_gmres_restart_respected;
          Alcotest.test_case "preconditioned" `Quick test_gmres_preconditioned;
          Alcotest.test_case "sync growth vs CG" `Quick test_gmres_sync_growth;
          Alcotest.test_case "x0 + validation" `Quick test_gmres_x0_and_validation;
        ] );
      ( "mg",
        [
          Alcotest.test_case "hierarchy" `Quick test_mg_hierarchy;
          Alcotest.test_case "v-cycle contracts" `Quick test_mg_vcycle_reduces_residual;
          Alcotest.test_case "solve" `Quick test_mg_solve;
          Alcotest.test_case "jacobi smoother" `Quick test_mg_jacobi_smoother;
          Alcotest.test_case "preconditioned CG" `Quick test_mg_preconditioned_cg;
        ] );
    ]
