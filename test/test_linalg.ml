(* Tests for Xsc_linalg: Mat/Vec, BLAS kernels, LAPACK factorizations,
   scalar precision emulation, generic BLAS. *)

open Xsc_linalg
module Rng = Xsc_util.Rng

let of_arrays rows = Mat.init (Array.length rows) (Array.length rows.(0)) (fun i j -> rows.(i).(j))

let qcheck tc = QCheck_alcotest.to_alcotest tc

let check_close ?(tol = 1e-10) msg a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s (|%g - %g| <= %g)" msg a b tol)
    true
    (abs_float (a -. b) <= tol)

let check_mat ?(tol = 1e-10) msg a b =
  Alcotest.(check bool) (msg ^ Printf.sprintf " (dist %g)" (Mat.dist_max a b)) true
    (Mat.approx_equal ~tol a b)

(* naive reference gemm *)
let ref_gemm ?(transa = Blas.NoTrans) ?(transb = Blas.NoTrans) a b =
  let ga i j = match transa with Blas.NoTrans -> Mat.get a i j | Blas.Trans -> Mat.get a j i in
  let gb i j = match transb with Blas.NoTrans -> Mat.get b i j | Blas.Trans -> Mat.get b j i in
  let m = match transa with Blas.NoTrans -> a.Mat.rows | Blas.Trans -> a.Mat.cols in
  let k = match transa with Blas.NoTrans -> a.Mat.cols | Blas.Trans -> a.Mat.rows in
  let n = match transb with Blas.NoTrans -> b.Mat.cols | Blas.Trans -> b.Mat.rows in
  Mat.init m n (fun i j ->
      let acc = ref 0.0 in
      for l = 0 to k - 1 do
        acc := !acc +. (ga i l *. gb l j)
      done;
      !acc)

(* ---- Vec ---- *)

let test_vec_ops () =
  let x = [| 1.0; 2.0; 3.0 |] and y = [| 4.0; 5.0; 6.0 |] in
  check_close "dot" 32.0 (Vec.dot x y);
  check_close "nrm2" (sqrt 14.0) (Vec.nrm2 x);
  check_close "norm_inf" 3.0 (Vec.norm_inf x);
  let z = Array.copy y in
  Vec.axpy 2.0 x z;
  Alcotest.(check (array (float 1e-12))) "axpy" [| 6.0; 9.0; 12.0 |] z;
  Vec.scal 0.5 z;
  Alcotest.(check (array (float 1e-12))) "scal" [| 3.0; 4.5; 6.0 |] z;
  Alcotest.(check (array (float 1e-12))) "add" [| 5.0; 7.0; 9.0 |] (Vec.add x y);
  Alcotest.(check (array (float 1e-12))) "sub" [| -3.0; -3.0; -3.0 |] (Vec.sub x y);
  check_close "dist_inf" 3.0 (Vec.dist_inf x y)

let test_vec_dim_checks () =
  Alcotest.check_raises "dot" (Invalid_argument "Vec.dot: length mismatch") (fun () ->
      ignore (Vec.dot [| 1.0 |] [| 1.0; 2.0 |]))

(* ---- Mat basics ---- *)

let test_mat_init_get_set () =
  let m = Mat.init 3 4 (fun i j -> float_of_int ((10 * i) + j)) in
  check_close "get" 23.0 (Mat.get m 2 3);
  Mat.set m 2 3 99.0;
  check_close "set" 99.0 (Mat.get m 2 3);
  Alcotest.(check (pair int int)) "dims" (3, 4) (Mat.dims m)

let test_mat_identity_transpose () =
  let i5 = Mat.identity 5 in
  check_mat "identity symmetric" i5 (Mat.transpose i5);
  let rng = Rng.create 2 in
  let a = Mat.random rng 4 7 in
  check_mat "transpose involution" a (Mat.transpose (Mat.transpose a))

let test_mat_blocks () =
  let m = Mat.init 6 6 (fun i j -> float_of_int ((i * 6) + j)) in
  let blk = Mat.sub_block m ~row:2 ~col:3 ~rows:2 ~cols:2 in
  check_close "block 0,0" 15.0 (Mat.get blk 0 0);
  check_close "block 1,1" 22.0 (Mat.get blk 1 1);
  let dst = Mat.create 6 6 in
  Mat.blit_block ~src:m ~dst ~src_row:0 ~src_col:0 ~dst_row:0 ~dst_col:0 ~rows:6 ~cols:6;
  check_mat "blit full copy" m dst;
  Alcotest.check_raises "oob" (Invalid_argument "Mat.sub_block: block out of bounds")
    (fun () -> ignore (Mat.sub_block m ~row:5 ~col:5 ~rows:3 ~cols:3))

let test_mat_norms () =
  let m = of_arrays [| [| 1.0; -2.0 |]; [| -3.0; 4.0 |] |] in
  check_close "frobenius" (sqrt 30.0) (Mat.frobenius m);
  check_close "inf norm" 7.0 (Mat.norm_inf m);
  check_close "max abs" 4.0 (Mat.max_abs m)

let test_mat_row_col_diag () =
  let m = of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check (array (float 0.0))) "row" [| 3.0; 4.0 |] (Mat.row m 1);
  Alcotest.(check (array (float 0.0))) "col" [| 2.0; 4.0 |] (Mat.col m 1);
  Alcotest.(check (array (float 0.0))) "diag" [| 1.0; 4.0 |] (Mat.diag m)

let test_mat_generators () =
  let rng = Rng.create 11 in
  let spd = Mat.random_spd rng 20 in
  check_mat ~tol:1e-12 "spd symmetric" spd (Mat.transpose spd);
  (* positive definite: Cholesky must succeed *)
  let c = Mat.copy spd in
  Lapack.potrf c;
  let dd = Mat.random_diag_dominant rng 20 in
  for i = 0 to 19 do
    let off = ref 0.0 in
    for j = 0 to 19 do
      if i <> j then off := !off +. abs_float (Mat.get dd i j)
    done;
    Alcotest.(check bool) "diag dominant" true (abs_float (Mat.get dd i i) > !off)
  done

let test_mat_triangles () =
  let m = of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  check_mat "lower" (of_arrays [| [| 1.0; 0.0 |]; [| 3.0; 4.0 |] |]) (Mat.lower m);
  check_mat "lower unit" (of_arrays [| [| 1.0; 0.0 |]; [| 3.0; 1.0 |] |])
    (Mat.lower ~unit_diag:true m);
  check_mat "upper" (of_arrays [| [| 1.0; 2.0 |]; [| 0.0; 4.0 |] |]) (Mat.upper m)

let test_mat_mul_vec () =
  let m = of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check (array (float 1e-12))) "mul_vec" [| 5.0; 11.0 |]
    (Mat.mul_vec m [| 1.0; 2.0 |])

(* ---- Blas ---- *)

let prop_gemm_all_transposes =
  QCheck.Test.make ~name:"gemm matches naive for all transpose combos" ~count:60
    QCheck.(triple (int_range 1 8) (int_range 1 8) (int_range 1 8))
    (fun (m, n, k) ->
      let rng = Rng.create ((m * 100) + (n * 10) + k) in
      List.for_all
        (fun (ta, tb) ->
          let a =
            match ta with Blas.NoTrans -> Mat.random rng m k | Blas.Trans -> Mat.random rng k m
          in
          let b =
            match tb with Blas.NoTrans -> Mat.random rng k n | Blas.Trans -> Mat.random rng n k
          in
          let c = Mat.random rng m n in
          let expected =
            Mat.add (Mat.scale 2.0 (ref_gemm ~transa:ta ~transb:tb a b)) (Mat.scale 0.5 c)
          in
          Blas.gemm ~transa:ta ~transb:tb ~alpha:2.0 a b ~beta:0.5 c;
          Mat.approx_equal ~tol:1e-10 expected c)
        [
          (Blas.NoTrans, Blas.NoTrans);
          (Blas.NoTrans, Blas.Trans);
          (Blas.Trans, Blas.NoTrans);
          (Blas.Trans, Blas.Trans);
        ])

let test_gemm_dim_check () =
  let a = Mat.create 2 3 and b = Mat.create 2 3 and c = Mat.create 2 3 in
  Alcotest.check_raises "inner" (Invalid_argument "Blas.gemm: inner dimension mismatch")
    (fun () -> Blas.gemm ~alpha:1.0 a b ~beta:0.0 c)

(* ---- blocked gemm (Kernel) against the unblocked oracle ---- *)

let blocked_vs_unblocked ~m ~n ~k transb =
  let rng = Rng.create ((m * 100003) + (n * 1009) + k) in
  let a = Mat.random rng m k in
  let b =
    match transb with Blas.NoTrans -> Mat.random rng k n | Blas.Trans -> Mat.random rng n k
  in
  let c0 = Mat.random rng m n in
  let c_ref = Mat.copy c0 and c_blk = Mat.copy c0 in
  Blas.gemm_unblocked ~transb ~alpha:(-1.0) a b ~beta:1.0 c_ref;
  Blas.gemm ~transb ~alpha:(-1.0) a b ~beta:1.0 c_blk;
  Mat.dist_max c_ref c_blk

let test_gemm_blocked_shapes () =
  (* shapes chosen to straddle the blocking parameters: just under/over the
     cutoff, exact MR/NR/KC multiples, ragged fringes in every dimension,
     the nb=72 tile size, and k crossing a KC panel boundary *)
  List.iter
    (fun (m, n, k) ->
      List.iter
        (fun transb ->
          let d = blocked_vs_unblocked ~m ~n ~k transb in
          Alcotest.(check bool)
            (Printf.sprintf "blocked=naive m=%d n=%d k=%d %s (dist %g)" m n k
               (match transb with Blas.NoTrans -> "NN" | Blas.Trans -> "NT")
               d)
            true (d <= 1e-12))
        [ Blas.NoTrans; Blas.Trans ])
    [
      (47, 47, 47);
      (48, 48, 48);
      (49, 50, 51);
      (64, 64, 64);
      (72, 72, 72);
      (61, 130, 48);
      (130, 61, 53);
      (97, 101, 259);
      (128, 128, 256);
      (129, 133, 300);
    ]

let prop_gemm_blocked_matches_unblocked =
  QCheck.Test.make ~name:"blocked gemm matches unblocked to 1e-12 on random shapes"
    ~count:30
    QCheck.(triple (int_range 1 140) (int_range 1 140) (int_range 1 140))
    (fun (m, n, k) ->
      blocked_vs_unblocked ~m ~n ~k Blas.NoTrans <= 1e-12
      && blocked_vs_unblocked ~m ~n ~k Blas.Trans <= 1e-12)

let test_kernel_dim_check () =
  let a = Mat.create 4 5 and b = Mat.create 4 5 and c = Mat.create 4 5 in
  Alcotest.check_raises "inner"
    (Invalid_argument "Kernel.add_matmul: inner dimension mismatch") (fun () ->
      Kernel.add_matmul ~trans_b:false ~alpha:1.0 a b c);
  Alcotest.(check bool) "cutoff positive" true (Kernel.cutoff > 0);
  Alcotest.(check bool) "microkernel fits panels" true
    (Kernel.mc mod Kernel.mr = 0 && Kernel.nc mod Kernel.nr = 0)

let test_gemv () =
  let rng = Rng.create 4 in
  let a = Mat.random rng 5 3 in
  let x = Vec.random rng 3 and y = Vec.random rng 5 in
  let expected = Array.copy y in
  for i = 0 to 4 do
    let acc = ref 0.0 in
    for j = 0 to 2 do
      acc := !acc +. (Mat.get a i j *. x.(j))
    done;
    expected.(i) <- (2.0 *. !acc) +. (3.0 *. y.(i))
  done;
  Blas.gemv ~alpha:2.0 a x ~beta:3.0 y;
  Alcotest.(check bool) "gemv" true (Vec.approx_equal ~tol:1e-12 expected y)

let test_gemv_trans () =
  let rng = Rng.create 6 in
  let a = Mat.random rng 5 3 in
  let x = Vec.random rng 5 in
  let y = Array.make 3 0.0 in
  Blas.gemv ~trans:Blas.Trans ~alpha:1.0 a x ~beta:0.0 y;
  let expected = Mat.mul_vec (Mat.transpose a) x in
  Alcotest.(check bool) "gemv trans" true (Vec.approx_equal ~tol:1e-12 expected y)

let test_syrk_matches_gemm () =
  let rng = Rng.create 8 in
  let a = Mat.random rng 6 4 in
  let c = Mat.create 6 6 in
  Blas.syrk ~uplo:Blas.Lower ~alpha:1.0 a ~beta:0.0 c;
  let full = ref_gemm ~transb:Blas.Trans a a in
  for i = 0 to 5 do
    for j = 0 to i do
      check_close ~tol:1e-12 "syrk lower entry" (Mat.get full i j) (Mat.get c i j)
    done
  done;
  (* upper triangle untouched (zero) *)
  for i = 0 to 5 do
    for j = i + 1 to 5 do
      check_close ~tol:0.0 "upper untouched" 0.0 (Mat.get c i j)
    done
  done

let test_syrk_trans () =
  let rng = Rng.create 9 in
  let a = Mat.random rng 4 6 in
  let c = Mat.create 6 6 in
  Blas.syrk ~uplo:Blas.Upper ~trans:Blas.Trans ~alpha:1.0 a ~beta:0.0 c;
  let full = ref_gemm ~transa:Blas.Trans a a in
  for i = 0 to 5 do
    for j = i to 5 do
      check_close ~tol:1e-12 "syrk^T upper entry" (Mat.get full i j) (Mat.get c i j)
    done
  done

(* trsm: check op(A)^-1 against explicitly multiplying back *)
let trsm_case side uplo trans diag =
  let rng = Rng.create 77 in
  let n = 6 in
  let a = Mat.random_diag_dominant rng n in
  let tri =
    Mat.init n n (fun i j ->
        let inside = match uplo with Blas.Lower -> i >= j | Blas.Upper -> i <= j in
        if i = j then (match diag with Blas.Unit -> Mat.get a i j | Blas.NonUnit -> Mat.get a i i)
        else if inside then Mat.get a i j
        else 0.0)
  in
  let b0 = Mat.random rng (match side with Blas.Left -> n | Blas.Right -> 4)
             (match side with Blas.Left -> 4 | Blas.Right -> n) in
  let x = Mat.copy b0 in
  Blas.trsm ~side ~uplo ~trans ~diag ~alpha:1.0 tri x;
  (* multiply back: op(T) X (Left) or X op(T) (Right) must equal b0;
     with Unit diag the solver treats the diagonal as 1 *)
  let eff =
    Mat.init n n (fun i j ->
        let v = match trans with Blas.NoTrans -> Mat.get tri i j | Blas.Trans -> Mat.get tri j i in
        let on_diag = i = j in
        if on_diag then (match diag with Blas.Unit -> 1.0 | Blas.NonUnit -> v) else v)
  in
  let back = match side with Blas.Left -> ref_gemm eff x | Blas.Right -> ref_gemm x eff in
  Mat.approx_equal ~tol:1e-8 b0 back

let test_dim_checks () =
  let sq = Mat.create 3 3 and rect = Mat.create 3 2 in
  Alcotest.check_raises "gemv x" (Invalid_argument "Blas.gemv: x dimension mismatch")
    (fun () -> Blas.gemv ~alpha:1.0 rect (Vec.create 3) ~beta:0.0 (Vec.create 3));
  Alcotest.check_raises "gemv y" (Invalid_argument "Blas.gemv: y dimension mismatch")
    (fun () -> Blas.gemv ~alpha:1.0 rect (Vec.create 2) ~beta:0.0 (Vec.create 2));
  Alcotest.check_raises "syrk out" (Invalid_argument "Blas.syrk: output dimension mismatch")
    (fun () -> Blas.syrk ~alpha:1.0 rect ~beta:0.0 (Mat.create 2 2));
  Alcotest.check_raises "trsm square" (Invalid_argument "Blas.trsm: A not square")
    (fun () -> Blas.trsm ~alpha:1.0 rect (Mat.create 3 3));
  Alcotest.check_raises "trsm left" (Invalid_argument "Blas.trsm: dimension mismatch")
    (fun () -> Blas.trsm ~alpha:1.0 sq (Mat.create 2 3));
  Alcotest.check_raises "trsm right" (Invalid_argument "Blas.trsm: dimension mismatch")
    (fun () -> Blas.trsm ~side:Blas.Right ~alpha:1.0 sq rect);
  Alcotest.check_raises "trsv square" (Invalid_argument "Blas.trsv: A not square")
    (fun () -> Blas.trsv rect (Vec.create 3));
  Alcotest.check_raises "trsv x" (Invalid_argument "Blas.trsv: dimension mismatch")
    (fun () -> Blas.trsv sq (Vec.create 2))

let test_trsm_all_variants () =
  List.iter
    (fun side ->
      List.iter
        (fun uplo ->
          List.iter
            (fun trans ->
              List.iter
                (fun diag ->
                  Alcotest.(check bool) "trsm variant solves" true
                    (trsm_case side uplo trans diag))
                [ Blas.Unit; Blas.NonUnit ])
            [ Blas.NoTrans; Blas.Trans ])
        [ Blas.Lower; Blas.Upper ])
    [ Blas.Left; Blas.Right ]

let test_trsv_matches_trsm () =
  let rng = Rng.create 21 in
  let n = 8 in
  let a = Mat.random_diag_dominant rng n in
  List.iter
    (fun (uplo, trans, diag) ->
      let b = Vec.random rng n in
      let x_vec = Array.copy b in
      Blas.trsv ~uplo ~trans ~diag a x_vec;
      let bm = Mat.init n 1 (fun i _ -> b.(i)) in
      Blas.trsm ~side:Blas.Left ~uplo ~trans ~diag ~alpha:1.0 a bm;
      for i = 0 to n - 1 do
        check_close ~tol:1e-10 "trsv = trsm column" (Mat.get bm i 0) x_vec.(i)
      done)
    [
      (Blas.Lower, Blas.NoTrans, Blas.NonUnit);
      (Blas.Lower, Blas.Trans, Blas.NonUnit);
      (Blas.Upper, Blas.NoTrans, Blas.Unit);
      (Blas.Upper, Blas.Trans, Blas.NonUnit);
    ]

(* ---- Lapack ---- *)

let test_potrf_reconstruct () =
  let rng = Rng.create 41 in
  let a = Mat.random_spd rng 16 in
  let f = Mat.copy a in
  Lapack.potrf f;
  let l = Mat.lower f in
  check_mat ~tol:1e-8 "L L^T = A" a (ref_gemm ~transb:Blas.Trans l l)

let test_potrf_not_spd () =
  let m = of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.check_raises "singular" (Lapack.Singular 1) (fun () -> Lapack.potrf m)

let test_potrs () =
  let rng = Rng.create 43 in
  let a = Mat.random_spd rng 12 in
  let x_true = Vec.random rng 12 in
  let b = Mat.mul_vec a x_true in
  let f = Mat.copy a in
  Lapack.potrf f;
  let x = Array.copy b in
  Lapack.potrs f x;
  Alcotest.(check bool) "solves" true (Vec.approx_equal ~tol:1e-8 x_true x)

let test_getrf_reconstruct () =
  let rng = Rng.create 47 in
  let n = 12 in
  let a = Mat.random rng n n in
  let f = Mat.copy a in
  let ipiv = Lapack.getrf f in
  let l = Mat.lower ~unit_diag:true f in
  let u = Mat.upper f in
  let lu = ref_gemm l u in
  (* apply the same row swaps to A: P A = L U *)
  let pa = Mat.copy a in
  Lapack.laswp pa ipiv;
  check_mat ~tol:1e-9 "P A = L U" pa lu

let test_getrf_pivots_bounds () =
  let rng = Rng.create 53 in
  let n = 10 in
  let f = Mat.random rng n n in
  let ipiv = Lapack.getrf f in
  Array.iteri
    (fun k p -> Alcotest.(check bool) "pivot in range" true (p >= k && p < n))
    ipiv

let test_getrs_solves () =
  let rng = Rng.create 59 in
  let n = 15 in
  let a = Mat.random rng n n in
  let x_true = Vec.random rng n in
  let b = Mat.mul_vec a x_true in
  let x = Lapack.lu_solve a b in
  Alcotest.(check bool) "solves" true (Vec.approx_equal ~tol:1e-8 x_true x)

let test_getrf_nopiv_diag_dominant () =
  let rng = Rng.create 61 in
  let n = 12 in
  let a = Mat.random_diag_dominant rng n in
  let f = Mat.copy a in
  Lapack.getrf_nopiv f;
  let l = Mat.lower ~unit_diag:true f and u = Mat.upper f in
  check_mat ~tol:1e-9 "A = L U (no pivot)" a (ref_gemm l u);
  let x_true = Vec.random rng n in
  let b = Mat.mul_vec a x_true in
  let x = Array.copy b in
  Lapack.getrs_nopiv f x;
  Alcotest.(check bool) "nopiv solve" true (Vec.approx_equal ~tol:1e-8 x_true x)

let test_getrf_singular () =
  let m = Mat.create 3 3 in
  Alcotest.check_raises "singular" (Lapack.Singular 0) (fun () -> ignore (Lapack.getrf m))

let prop_getrf_blocked_matches_unblocked =
  QCheck.Test.make ~name:"blocked LU = unblocked LU (factors and pivots)" ~count:30
    QCheck.(pair (int_range 1 40) (int_range 1 4))
    (fun (n, nb_sel) ->
      let nb = [| 3; 8; 16; 64 |].(nb_sel - 1) in
      let rng = Rng.create ((n * 7) + nb) in
      let a = Mat.random rng n n in
      let f1 = Mat.copy a and f2 = Mat.copy a in
      let p1 = Lapack.getrf f1 in
      let p2 = Lapack.getrf_blocked ~nb f2 in
      p1 = p2 && Mat.approx_equal ~tol:1e-10 f1 f2)

let test_getrf_blocked_solves () =
  let rng = Rng.create 101 in
  let n = 60 in
  let a = Mat.random rng n n in
  let x_true = Vec.random rng n in
  let b = Mat.mul_vec a x_true in
  let f = Mat.copy a in
  let ipiv = Lapack.getrf_blocked ~nb:16 f in
  let x = Array.copy b in
  Lapack.getrs f ipiv x;
  Alcotest.(check bool) "solves" true (Vec.approx_equal ~tol:1e-8 x_true x)

let test_getrf_blocked_validation () =
  Alcotest.check_raises "nb" (Invalid_argument "Lapack.getrf_blocked: nb must be positive")
    (fun () -> ignore (Lapack.getrf_blocked ~nb:0 (Mat.identity 4)))

let prop_qr_orthonormal_and_reconstructs =
  QCheck.Test.make ~name:"geqrf: Q orthonormal and Q R = A" ~count:40
    QCheck.(pair (int_range 2 12) (int_range 1 8))
    (fun (m, n) ->
      QCheck.assume (m >= n);
      let rng = Rng.create ((m * 31) + n) in
      let a = Mat.random rng m n in
      let w = Mat.copy a in
      let tau = Lapack.geqrf w in
      let q = Lapack.orgqr ~a:w ~tau in
      let r = Mat.init n n (fun i j -> if j >= i then Mat.get w i j else 0.0) in
      let qtq = ref_gemm ~transa:Blas.Trans q q in
      Mat.approx_equal ~tol:1e-8 qtq (Mat.identity n)
      && Mat.approx_equal ~tol:1e-8 a (ref_gemm q r))

let test_ormqr_roundtrip () =
  (* applying Q then Q^T is the identity *)
  let rng = Rng.create 67 in
  let a = Mat.random rng 10 6 in
  let w = Mat.copy a in
  let tau = Lapack.geqrf w in
  let c0 = Mat.random rng 10 3 in
  let c = Mat.copy c0 in
  Lapack.ormqr ~trans:Blas.Trans ~a:w ~tau c;
  Lapack.ormqr ~trans:Blas.NoTrans ~a:w ~tau c;
  check_mat ~tol:1e-9 "Q Q^T C = C" c0 c

let test_gels_matches_normal_equations () =
  let rng = Rng.create 71 in
  let m = 20 and n = 6 in
  let a = Mat.random rng m n in
  let b = Vec.random rng m in
  let x = Lapack.gels a b in
  (* normal equations: A^T A x = A^T b *)
  let ata = ref_gemm ~transa:Blas.Trans a a in
  let atb = Mat.mul_vec (Mat.transpose a) b in
  let x_ref = Lapack.lu_solve ata atb in
  Alcotest.(check bool) "matches normal equations" true
    (Vec.approx_equal ~tol:1e-8 x_ref x)

let test_inverse () =
  let rng = Rng.create 73 in
  let a = Mat.random_diag_dominant rng 8 in
  let inv = Lapack.inverse a in
  check_mat ~tol:1e-9 "A A^-1 = I" (Mat.identity 8) (ref_gemm a inv)

let test_flop_counts () =
  check_close "potrf" (1000.0 /. 3.0) (Lapack.potrf_flops 10);
  check_close "getrf" (2000.0 /. 3.0) (Lapack.getrf_flops 10);
  check_close "geqrf square" (2000.0 *. 2.0 /. 3.0) (Lapack.geqrf_flops 10 10);
  check_close "gemm" 2000.0 (Blas.gemm_flops 10 10 10)

(* ---- Eigen ---- *)

let test_eigen_2x2_known () =
  let m = of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  let d = Eigen.eigenvalues m in
  check_close ~tol:1e-12 "lambda_0" 1.0 d.(0);
  check_close ~tol:1e-12 "lambda_1" 3.0 d.(1)

let test_eigen_diagonal () =
  let m = Mat.init 5 5 (fun i j -> if i = j then float_of_int (5 - i) else 0.0) in
  let d = Eigen.eigenvalues m in
  Alcotest.(check (array (float 1e-12))) "sorted ascending" [| 1.0; 2.0; 3.0; 4.0; 5.0 |] d

let prop_eigen_decomposition =
  QCheck.Test.make ~name:"symmetric eigendecomposition: A Z = Z D, Z orthonormal" ~count:20
    QCheck.(int_range 2 24)
    (fun n ->
      let rng = Rng.create (n * 13) in
      let a = Mat.symmetrize (Mat.random rng n n) in
      let d, z = Eigen.symmetric a in
      let az = ref_gemm a z in
      let zd = Mat.init n n (fun i j -> Mat.get z i j *. d.(j)) in
      let ztz = ref_gemm ~transa:Blas.Trans z z in
      let sorted = Array.for_all (fun ok -> ok) (Array.init (n - 1) (fun i -> d.(i) <= d.(i + 1))) in
      Mat.approx_equal ~tol:1e-8 az zd
      && Mat.approx_equal ~tol:1e-8 ztz (Mat.identity n)
      && sorted)

let test_eigen_trace_invariant () =
  let rng = Rng.create 301 in
  let a = Mat.random_spd rng 20 in
  let d = Eigen.eigenvalues a in
  let trace = Array.fold_left ( +. ) 0.0 (Mat.diag a) in
  let sum = Array.fold_left ( +. ) 0.0 d in
  check_close ~tol:1e-9 "trace = sum of eigenvalues" trace sum

let test_eigen_condition_spd () =
  (* diag(1..4): condition 4 *)
  let m = Mat.init 4 4 (fun i j -> if i = j then float_of_int (i + 1) else 0.0) in
  check_close ~tol:1e-10 "cond" 4.0 (Eigen.condition_spd m);
  Alcotest.check_raises "indefinite rejected"
    (Invalid_argument "Eigen.condition_spd: matrix not positive definite") (fun () ->
      ignore (Eigen.condition_spd (Mat.scale (-1.0) (Mat.identity 3))))

(* ---- Gallery ---- *)

let test_gallery_spectrum () =
  let rng = Rng.create 403 in
  let want = [| 0.5; 1.0; 2.0; 4.0; 8.0 |] in
  let a = Gallery.with_spectrum rng want in
  let got = Eigen.eigenvalues a in
  Array.iteri (fun i w -> check_close ~tol:1e-9 "eigenvalue recovered" w got.(i)) want

let test_gallery_cond () =
  let rng = Rng.create 405 in
  let a = Gallery.spd_with_cond rng 20 ~cond:1e4 in
  check_close ~tol:1.0 "condition number" 1e4 (Eigen.condition_spd a)

let test_gallery_hilbert () =
  let h = Gallery.hilbert 4 in
  check_close ~tol:0.0 "entry (0,0)" 1.0 (Mat.get h 0 0);
  check_close ~tol:0.0 "entry (2,3)" (1.0 /. 6.0) (Mat.get h 2 3);
  (* SPD (potrf succeeds) and already badly conditioned at n=8 *)
  Lapack.potrf (Mat.copy h);
  Alcotest.(check bool) "ill-conditioned" true
    (Eigen.condition_spd (Gallery.hilbert 8) > 1e8)

let test_gallery_toeplitz_eigenvalues () =
  let n = 9 in
  let t = Gallery.tridiagonal_toeplitz n ~diag:2.0 ~off:(-1.0) in
  let got = Eigen.eigenvalues t in
  let expected =
    Array.init n (fun k ->
        2.0 -. (2.0 *. cos (float_of_int (k + 1) *. Float.pi /. float_of_int (n + 1))))
  in
  Array.sort compare expected;
  Array.iteri (fun i e -> check_close ~tol:1e-10 "closed form" e got.(i)) expected

(* ---- Scalar precision emulation ---- *)

let test_fp32_round () =
  let x = 1.0 +. 1e-12 in
  Alcotest.(check (float 0.0)) "rounds to 1" 1.0 (Scalar.Fp32.round x);
  Alcotest.(check (float 0.0)) "idempotent" (Scalar.Fp32.round 0.1)
    (Scalar.Fp32.round (Scalar.Fp32.round 0.1));
  Alcotest.(check bool) "0.1 not exact in fp32" true (Scalar.Fp32.round 0.1 <> 0.1)

let test_fp32_eps () =
  Alcotest.(check (float 0.0)) "1 + eps distinct" (1.0 +. (2.0 *. Scalar.Fp32.eps))
    (Scalar.Fp32.round (1.0 +. (2.0 *. Scalar.Fp32.eps)));
  Alcotest.(check (float 0.0)) "1 + eps/2 collapses" 1.0
    (Scalar.Fp32.round (1.0 +. (Scalar.Fp32.eps /. 2.0)))

let test_fp16_known_values () =
  Alcotest.(check (float 0.0)) "1.5 exact" 1.5 (Scalar.Fp16.round 1.5);
  Alcotest.(check (float 0.0)) "2048 exact" 2048.0 (Scalar.Fp16.round 2048.0);
  (* ulp at 2048 is 2: 2049 ties to even -> 2048 *)
  Alcotest.(check (float 0.0)) "tie to even down" 2048.0 (Scalar.Fp16.round 2049.0);
  Alcotest.(check (float 0.0)) "tie to even up" 2052.0 (Scalar.Fp16.round 2051.0);
  Alcotest.(check (float 0.0)) "overflow to inf" infinity (Scalar.Fp16.round 1e30);
  Alcotest.(check (float 0.0)) "underflow to zero" 0.0 (Scalar.Fp16.round 1e-30);
  Alcotest.(check (float 0.0)) "negative" (-1.5) (Scalar.Fp16.round (-1.5))

let prop_fp16_idempotent =
  QCheck.Test.make ~name:"fp16 rounding idempotent" ~count:500
    (QCheck.float_range (-70000.0) 70000.0)
    (fun x ->
      let r = Scalar.Fp16.round x in
      Scalar.Fp16.round r = r)

let prop_fp16_error_bound =
  QCheck.Test.make ~name:"fp16 relative error <= eps" ~count:500
    (QCheck.float_range 1e-10 60000.0)
    (fun x ->
      let r = Scalar.Fp16.round x in
      if x >= 0x1.0p-14 then abs_float (r -. x) <= Scalar.Fp16.eps *. x
      else abs_float (r -. x) <= 0x1.0p-25)

let test_bf16_known_values () =
  Alcotest.(check (float 0.0)) "1.0" 1.0 (Scalar.Bf16.round 1.0);
  (* bf16 has 7 mantissa bits: ulp at 1 is 2^-7; 1 + 2^-8 is a tie -> even *)
  Alcotest.(check (float 0.0)) "1+2^-7 exact" (1.0 +. 0x1.0p-7)
    (Scalar.Bf16.round (1.0 +. 0x1.0p-7));
  Alcotest.(check (float 0.0)) "1+2^-8 ties to even" 1.0 (Scalar.Bf16.round (1.0 +. 0x1.0p-8));
  Alcotest.(check (float 0.0)) "1+2^-10 collapses" 1.0 (Scalar.Bf16.round (1.0 +. 0x1.0p-10))

let test_scalar_of_name () =
  List.iter
    (fun name ->
      let m = Scalar.of_name name in
      let module P = (val m : Scalar.S) in
      Alcotest.(check string) "name" name P.name)
    [ "fp64"; "fp32"; "fp16"; "bf16" ];
  Alcotest.check_raises "unknown" (Invalid_argument "Scalar.of_name: unknown format fp8")
    (fun () -> ignore (Scalar.of_name "fp8"))

(* ---- Gblas ---- *)

let test_gblas_fp64_matches_native () =
  let module G = Gblas.Make (Scalar.Fp64) in
  let rng = Rng.create 83 in
  let a = Mat.random rng 6 6 and b = Mat.random rng 6 6 in
  let c1 = Mat.create 6 6 and c2 = Mat.create 6 6 in
  G.gemm ~alpha:1.0 a b ~beta:0.0 c1;
  Blas.gemm ~alpha:1.0 a b ~beta:0.0 c2;
  (* identical loop order: bitwise equal *)
  Alcotest.(check bool) "gemm close" true (Mat.approx_equal ~tol:1e-13 c1 c2)

let test_gblas_fp32_solve_accuracy () =
  let module G = Gblas.Make (Scalar.Fp32) in
  let rng = Rng.create 89 in
  let n = 24 in
  let a = Mat.random_spd rng n in
  let x_true = Vec.random rng n in
  let b = Mat.mul_vec a x_true in
  let f = G.quantize_mat a in
  G.potrf f;
  let x = G.quantize_vec b in
  G.potrs f x;
  let err = Vec.dist_inf x x_true /. Vec.norm_inf x_true in
  Alcotest.(check bool) "fp32-level accuracy" true (err > 1e-14 && err < 1e-2)

let test_gblas_getrf_solves () =
  let module G = Gblas.Make (Scalar.Fp32) in
  let rng = Rng.create 97 in
  let n = 16 in
  let a = Mat.random_diag_dominant rng n in
  let x_true = Vec.random rng n in
  let b = Mat.mul_vec a x_true in
  let f = G.quantize_mat a in
  let ipiv = G.getrf f in
  let x = G.quantize_vec b in
  G.getrs f ipiv x;
  Alcotest.(check bool) "fp32 LU solve" true (Vec.dist_inf x x_true < 1e-2)

let () =
  Alcotest.run "xsc_linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "ops" `Quick test_vec_ops;
          Alcotest.test_case "dim checks" `Quick test_vec_dim_checks;
        ] );
      ( "mat",
        [
          Alcotest.test_case "init/get/set" `Quick test_mat_init_get_set;
          Alcotest.test_case "identity/transpose" `Quick test_mat_identity_transpose;
          Alcotest.test_case "blocks" `Quick test_mat_blocks;
          Alcotest.test_case "norms" `Quick test_mat_norms;
          Alcotest.test_case "row/col/diag" `Quick test_mat_row_col_diag;
          Alcotest.test_case "generators" `Quick test_mat_generators;
          Alcotest.test_case "triangles" `Quick test_mat_triangles;
          Alcotest.test_case "mul_vec" `Quick test_mat_mul_vec;
        ] );
      ( "blas",
        [
          qcheck prop_gemm_all_transposes;
          Alcotest.test_case "gemm dim check" `Quick test_gemm_dim_check;
          Alcotest.test_case "blocked gemm boundary shapes" `Quick test_gemm_blocked_shapes;
          qcheck prop_gemm_blocked_matches_unblocked;
          Alcotest.test_case "kernel checks" `Quick test_kernel_dim_check;
          Alcotest.test_case "gemv" `Quick test_gemv;
          Alcotest.test_case "gemv trans" `Quick test_gemv_trans;
          Alcotest.test_case "syrk lower" `Quick test_syrk_matches_gemm;
          Alcotest.test_case "syrk trans upper" `Quick test_syrk_trans;
          Alcotest.test_case "gemv/syrk/trsm/trsv dim checks" `Quick test_dim_checks;
          Alcotest.test_case "trsm all 16 variants" `Quick test_trsm_all_variants;
          Alcotest.test_case "trsv = trsm column" `Quick test_trsv_matches_trsm;
        ] );
      ( "lapack",
        [
          Alcotest.test_case "potrf reconstruct" `Quick test_potrf_reconstruct;
          Alcotest.test_case "potrf rejects non-SPD" `Quick test_potrf_not_spd;
          Alcotest.test_case "potrs" `Quick test_potrs;
          Alcotest.test_case "getrf reconstruct" `Quick test_getrf_reconstruct;
          Alcotest.test_case "getrf pivot bounds" `Quick test_getrf_pivots_bounds;
          Alcotest.test_case "getrs solves" `Quick test_getrs_solves;
          Alcotest.test_case "getrf_nopiv" `Quick test_getrf_nopiv_diag_dominant;
          Alcotest.test_case "getrf singular" `Quick test_getrf_singular;
          qcheck prop_getrf_blocked_matches_unblocked;
          Alcotest.test_case "getrf_blocked solves" `Quick test_getrf_blocked_solves;
          Alcotest.test_case "getrf_blocked validation" `Quick test_getrf_blocked_validation;
          qcheck prop_qr_orthonormal_and_reconstructs;
          Alcotest.test_case "ormqr roundtrip" `Quick test_ormqr_roundtrip;
          Alcotest.test_case "gels vs normal equations" `Quick
            test_gels_matches_normal_equations;
          Alcotest.test_case "inverse" `Quick test_inverse;
          Alcotest.test_case "flop counts" `Quick test_flop_counts;
        ] );
      ( "eigen",
        [
          Alcotest.test_case "2x2 known" `Quick test_eigen_2x2_known;
          Alcotest.test_case "diagonal" `Quick test_eigen_diagonal;
          qcheck prop_eigen_decomposition;
          Alcotest.test_case "trace invariant" `Quick test_eigen_trace_invariant;
          Alcotest.test_case "condition spd" `Quick test_eigen_condition_spd;
        ] );
      ( "gallery",
        [
          Alcotest.test_case "spectrum" `Quick test_gallery_spectrum;
          Alcotest.test_case "condition" `Quick test_gallery_cond;
          Alcotest.test_case "hilbert" `Quick test_gallery_hilbert;
          Alcotest.test_case "toeplitz eigenvalues" `Quick test_gallery_toeplitz_eigenvalues;
        ] );
      ( "scalar",
        [
          Alcotest.test_case "fp32 rounding" `Quick test_fp32_round;
          Alcotest.test_case "fp32 eps" `Quick test_fp32_eps;
          Alcotest.test_case "fp16 known values" `Quick test_fp16_known_values;
          qcheck prop_fp16_idempotent;
          qcheck prop_fp16_error_bound;
          Alcotest.test_case "bf16 known values" `Quick test_bf16_known_values;
          Alcotest.test_case "of_name" `Quick test_scalar_of_name;
        ] );
      ( "gblas",
        [
          Alcotest.test_case "fp64 = native" `Quick test_gblas_fp64_matches_native;
          Alcotest.test_case "fp32 chol accuracy" `Quick test_gblas_fp32_solve_accuracy;
          Alcotest.test_case "fp32 LU solve" `Quick test_gblas_getrf_solves;
        ] );
    ]
