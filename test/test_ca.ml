(* Tests for Xsc_ca: process grids with communication accounting, SUMMA and
   Cannon distributed multiplication, TSQR, and the 2.5D cost models. *)

open Xsc_linalg
module Pgrid = Xsc_ca.Pgrid
module Summa = Xsc_ca.Summa
module Tsqr = Xsc_ca.Tsqr
module Rng = Xsc_util.Rng

let qcheck tc = QCheck_alcotest.to_alcotest tc

(* ---- Pgrid ---- *)

let test_counter () =
  let c = Pgrid.counter () in
  Pgrid.record c ~words:10.0;
  Pgrid.record c ~words:5.0;
  Alcotest.(check int) "messages" 2 c.Pgrid.messages;
  Alcotest.(check (float 0.0)) "words" 15.0 c.Pgrid.words;
  let c2 = Pgrid.counter () in
  Pgrid.record c2 ~words:1.0;
  Pgrid.merge c c2;
  Alcotest.(check int) "merged messages" 3 c.Pgrid.messages

let test_scatter_gather_roundtrip () =
  let rng = Rng.create 2 in
  let a = Mat.random rng 12 8 in
  let g = Pgrid.create ~pr:3 ~pc:2 in
  let blocks = Pgrid.scatter g a in
  Alcotest.(check (pair int int)) "block dims" (4, 4) (Mat.dims blocks.(0).(0));
  let back = Pgrid.gather g blocks in
  Alcotest.(check bool) "roundtrip" true (Mat.approx_equal ~tol:0.0 a back);
  (* scatter: ranks-1 messages, gather: ranks-1 more *)
  Alcotest.(check int) "message count" (2 * ((3 * 2) - 1)) g.Pgrid.counter.Pgrid.messages

let test_scatter_divisibility () =
  let g = Pgrid.create ~pr:3 ~pc:2 in
  Alcotest.check_raises "not divisible"
    (Invalid_argument "Pgrid.scatter: matrix not divisible by grid") (fun () ->
      ignore (Pgrid.scatter g (Mat.create 10 8)))

let test_bcast_counts () =
  let rng = Rng.create 3 in
  let g = Pgrid.create ~pr:2 ~pc:4 in
  let blocks = Pgrid.scatter g (Mat.random rng 8 16) in
  let before = g.Pgrid.counter.Pgrid.messages in
  let blk = Pgrid.bcast_in_row g ~root_col:1 blocks ~row:0 in
  Alcotest.(check int) "pc-1 messages" (before + 3) g.Pgrid.counter.Pgrid.messages;
  Alcotest.(check bool) "returns the root block" true
    (Mat.approx_equal ~tol:0.0 blocks.(0).(1) blk)

let test_shifts_are_circular () =
  let g = Pgrid.create ~pr:2 ~pc:3 in
  let blocks =
    Array.init 2 (fun i -> Array.init 3 (fun j -> Mat.init 1 1 (fun _ _ -> float_of_int ((10 * i) + j))))
  in
  Pgrid.shift_row_left g blocks ~steps:1;
  Alcotest.(check (float 0.0)) "row shifted" 1.0 (Mat.get blocks.(0).(0) 0 0);
  Alcotest.(check (float 0.0)) "wraps" 0.0 (Mat.get blocks.(0).(2) 0 0);
  Pgrid.shift_row_left g blocks ~steps:2;
  Alcotest.(check (float 0.0)) "shift composes mod pc" 0.0 (Mat.get blocks.(0).(0) 0 0)

let test_time_of_counter () =
  let c = Pgrid.counter () in
  Pgrid.record c ~words:1000.0;
  let net =
    Xsc_simmachine.Network.create ~alpha:1e-6 ~beta:1e-9 ~per_hop:0.0
      (Xsc_simmachine.Topology.All_to_all 4)
  in
  Alcotest.(check (float 1e-12)) "alpha + words*8*beta" (1e-6 +. (8000.0 *. 1e-9))
    (Pgrid.time_of_counter c net)

(* ---- Summa / Cannon ---- *)

let prop_summa_correct =
  QCheck.Test.make ~name:"SUMMA product = sequential gemm" ~count:20
    QCheck.(pair (int_range 1 3) (int_range 1 4))
    (fun (s, scale) ->
      let p = s * s in
      let n = s * scale * 2 in
      let rng = Rng.create ((s * 100) + n) in
      let a = Mat.random rng n n and b = Mat.random rng n n in
      let r = Summa.summa ~p a b in
      Mat.approx_equal ~tol:1e-9 (Blas.gemm_new a b) r.Summa.product)

let prop_cannon_correct =
  QCheck.Test.make ~name:"Cannon product = sequential gemm" ~count:20
    QCheck.(pair (int_range 1 3) (int_range 1 4))
    (fun (s, scale) ->
      let p = s * s in
      let n = s * scale * 2 in
      let rng = Rng.create ((s * 200) + n) in
      let a = Mat.random rng n n and b = Mat.random rng n n in
      let r = Summa.cannon ~p a b in
      Mat.approx_equal ~tol:1e-9 (Blas.gemm_new a b) r.Summa.product)

let test_summa_message_count () =
  (* s panel steps, each: s row-broadcasts + s col-broadcasts of (s-1) msgs *)
  let rng = Rng.create 5 in
  let s = 4 in
  let a = Mat.random rng 16 16 and b = Mat.random rng 16 16 in
  let r = Summa.summa ~p:(s * s) a b in
  Alcotest.(check int) "2 s^2 (s-1)" (2 * s * s * (s - 1)) r.Summa.messages

let test_cannon_message_count () =
  let rng = Rng.create 6 in
  let s = 4 in
  let a = Mat.random rng 16 16 and b = Mat.random rng 16 16 in
  let r = Summa.cannon ~p:(s * s) a b in
  (* skew: 2 s (s-1); steps: (s-1) rounds of 2 s^2 *)
  Alcotest.(check int) "skew + shifts" ((2 * s * (s - 1)) + ((s - 1) * 2 * s * s))
    r.Summa.messages

let test_summa_rejects_bad_p () =
  let a = Mat.create 4 4 in
  Alcotest.check_raises "not square p" (Invalid_argument "Summa: p must be a perfect square")
    (fun () -> ignore (Summa.summa ~p:3 a a))

let test_model_2d_vs_25d () =
  let n = 65536 and p = 4096 in
  let m2d = Summa.model_2d ~n ~p in
  let m25_4 = Summa.model_25d ~n ~p ~c:4 in
  let m25_16 = Summa.model_25d ~n ~p ~c:16 in
  Alcotest.(check bool) "replication cuts words" true
    (m25_4.Summa.words_per_rank < m2d.Summa.words_per_rank
    && m25_16.Summa.words_per_rank < m25_4.Summa.words_per_rank);
  (* the sqrt(c) law *)
  Alcotest.(check (float 1e-6)) "sqrt(c) reduction" (m2d.Summa.words_per_rank /. 2.0)
    m25_4.Summa.words_per_rank

let test_model_time_positive () =
  let net =
    Xsc_simmachine.Network.create (Xsc_simmachine.Topology.of_spec "torus3d" 4096)
  in
  let t = Summa.model_time (Summa.model_2d ~n:8192 ~p:4096) net in
  Alcotest.(check bool) "positive" true (t > 0.0)

(* ---- Dist_cholesky ---- *)

module Dist_cholesky = Xsc_ca.Dist_cholesky

let prop_dist_cholesky_correct =
  QCheck.Test.make ~name:"block-cyclic Cholesky = sequential potrf" ~count:15
    QCheck.(triple (int_range 1 5) (int_range 1 3) (int_range 1 3))
    (fun (nt, pr, pc) ->
      let nb = 6 in
      let n = nt * nb in
      let rng = Rng.create ((nt * 31) + (pr * 7) + pc) in
      let a = Mat.random_spd rng n in
      let r = Dist_cholesky.factor ~pr ~pc ~nb a in
      let expected = Mat.copy a in
      Lapack.potrf expected;
      Mat.approx_equal ~tol:1e-9 (Mat.lower expected) r.Dist_cholesky.l)

let test_dist_cholesky_comm_counts () =
  let rng = Rng.create 55 in
  let a = Mat.random_spd rng 96 in
  (* on a 1x1 grid everything is local: zero communication *)
  let solo = Dist_cholesky.factor ~pr:1 ~pc:1 ~nb:16 a in
  Alcotest.(check int) "1 rank, no messages" 0 solo.Dist_cholesky.messages;
  let grid4 = Dist_cholesky.factor ~pr:2 ~pc:2 ~nb:16 a in
  Alcotest.(check bool) "4 ranks communicate" true (grid4.Dist_cholesky.messages > 0);
  Alcotest.(check (float 0.0)) "words = messages * nb^2"
    (float_of_int (grid4.Dist_cholesky.messages * 16 * 16))
    grid4.Dist_cholesky.words;
  (* both factorizations agree regardless of the grid *)
  Alcotest.(check bool) "grid does not change the factor" true
    (Mat.approx_equal ~tol:0.0 solo.Dist_cholesky.l grid4.Dist_cholesky.l)

let test_dist_cholesky_words_scale_with_grid () =
  let rng = Rng.create 57 in
  let a = Mat.random_spd rng 128 in
  let w p =
    let s = int_of_float (sqrt (float_of_int p)) in
    (Dist_cholesky.factor ~pr:s ~pc:s ~nb:16 a).Dist_cholesky.words
  in
  (* total words grow with the grid, but words per rank shrink *)
  Alcotest.(check bool) "per-rank words shrink" true (w 16 /. 16.0 < w 4 /. 4.0)

let test_dist_cholesky_model () =
  let m4 = Dist_cholesky.model_2d ~n:16384 ~nb:256 ~p:4 in
  let m64 = Dist_cholesky.model_2d ~n:16384 ~nb:256 ~p:64 in
  Alcotest.(check bool) "words/rank shrink as 1/sqrt(p)" true
    (abs_float ((m4.Dist_cholesky.words_per_rank /. m64.Dist_cholesky.words_per_rank) -. 4.0)
    < 1e-9);
  Alcotest.(check bool) "messages grow with log p" true
    (m64.Dist_cholesky.msgs_per_rank > m4.Dist_cholesky.msgs_per_rank)

(* ---- Tsqr ---- *)

let householder_r a =
  let n = a.Mat.cols in
  let w = Mat.copy a in
  let _ = Lapack.geqrf w in
  let r = Mat.init n n (fun i j -> if j >= i then Mat.get w i j else 0.0) in
  (* normalise sign to compare with TSQR output *)
  let out = Mat.copy r in
  for i = 0 to n - 1 do
    if Mat.get out i i < 0.0 then
      for j = i to n - 1 do
        Mat.set out i j (-.(Mat.get out i j))
      done
  done;
  out

let prop_tsqr_matches_householder =
  QCheck.Test.make ~name:"TSQR R = Householder R (sign-normalised)" ~count:25
    QCheck.(triple (int_range 1 4) (int_range 1 6) (int_range 0 1))
    (fun (logp, n, tree_sel) ->
      let p = 1 lsl logp in
      let rows_per = n + 2 in
      let rng = Rng.create ((logp * 31) + n) in
      let a = Mat.random rng (p * rows_per) n in
      let tree = if tree_sel = 0 then Tsqr.Binary else Tsqr.Flat in
      let r = Tsqr.factor_mat ~tree ~p a in
      Mat.approx_equal ~tol:1e-8 (householder_r a) r.Tsqr.r)

let test_tsqr_q_orthonormal () =
  let rng = Rng.create 11 in
  let a = Mat.random rng 64 8 in
  let res = Tsqr.factor_mat ~p:8 a in
  let q = Tsqr.q_of a ~r:res.Tsqr.r in
  let qtq = Blas.gemm_new ~transa:Blas.Trans q q in
  Alcotest.(check bool) "Q^T Q = I" true (Mat.approx_equal ~tol:1e-8 qtq (Mat.identity 8));
  let qr = Blas.gemm_new q res.Tsqr.r in
  Alcotest.(check bool) "Q R = A" true (Mat.approx_equal ~tol:1e-8 a qr)

let test_tsqr_message_counts () =
  let rng = Rng.create 13 in
  let a = Mat.random rng 64 4 in
  let bin = Tsqr.factor_mat ~tree:Tsqr.Binary ~p:16 a in
  let flat = Tsqr.factor_mat ~tree:Tsqr.Flat ~p:16 a in
  Alcotest.(check int) "binary critical path = log2 p" 4 bin.Tsqr.messages_critical_path;
  Alcotest.(check int) "flat critical path = p-1" 15 flat.Tsqr.messages_critical_path;
  Alcotest.(check int) "binary total = p-1 combines" 15 bin.Tsqr.messages_total;
  Alcotest.(check bool) "binary wins on the critical path" true
    (bin.Tsqr.messages_critical_path < flat.Tsqr.messages_critical_path);
  Alcotest.(check bool) "same R either way" true
    (Mat.approx_equal ~tol:1e-9 bin.Tsqr.r flat.Tsqr.r)

let test_tsqr_vs_householder_model () =
  (* the CA claim: TSQR needs exponentially fewer critical-path messages *)
  let p = 1024 and n = 64 in
  (* the critical path of a binary tree does not depend on the width *)
  let tsqr = (Tsqr.factor_mat ~tree:Tsqr.Binary ~p (Mat.create p 1)).Tsqr.messages_critical_path in
  Alcotest.(check int) "tsqr" 10 tsqr;
  Alcotest.(check int) "householder 2 n log p" (2 * n * 10) (Tsqr.householder_messages ~p ~n);
  Alcotest.(check bool) "factor n" true (Tsqr.householder_messages ~p ~n / tsqr >= n)

let test_tsqr_block_validation () =
  Alcotest.check_raises "short blocks"
    (Invalid_argument "Tsqr.factor_mat: blocks shorter than wide") (fun () ->
      ignore (Tsqr.factor_mat ~p:8 (Mat.create 16 4)));
  Alcotest.check_raises "no blocks" (Invalid_argument "Tsqr.factor: no blocks") (fun () ->
      ignore (Tsqr.factor ~blocks:[||] ()))

let test_tsqr_single_block () =
  let rng = Rng.create 17 in
  let a = Mat.random rng 10 4 in
  let r = Tsqr.factor_mat ~p:1 a in
  Alcotest.(check int) "no messages" 0 r.Tsqr.messages_total;
  Alcotest.(check bool) "R correct" true (Mat.approx_equal ~tol:1e-9 (householder_r a) r.Tsqr.r)

let () =
  Alcotest.run "xsc_ca"
    [
      ( "pgrid",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "scatter/gather" `Quick test_scatter_gather_roundtrip;
          Alcotest.test_case "divisibility" `Quick test_scatter_divisibility;
          Alcotest.test_case "bcast counts" `Quick test_bcast_counts;
          Alcotest.test_case "circular shifts" `Quick test_shifts_are_circular;
          Alcotest.test_case "time of counter" `Quick test_time_of_counter;
        ] );
      ( "summa",
        [
          qcheck prop_summa_correct;
          qcheck prop_cannon_correct;
          Alcotest.test_case "summa message count" `Quick test_summa_message_count;
          Alcotest.test_case "cannon message count" `Quick test_cannon_message_count;
          Alcotest.test_case "rejects bad p" `Quick test_summa_rejects_bad_p;
          Alcotest.test_case "2d vs 2.5d model" `Quick test_model_2d_vs_25d;
          Alcotest.test_case "model time" `Quick test_model_time_positive;
        ] );
      ( "dist_cholesky",
        [
          qcheck prop_dist_cholesky_correct;
          Alcotest.test_case "comm counts" `Quick test_dist_cholesky_comm_counts;
          Alcotest.test_case "words scale with grid" `Quick
            test_dist_cholesky_words_scale_with_grid;
          Alcotest.test_case "model" `Quick test_dist_cholesky_model;
        ] );
      ( "tsqr",
        [
          qcheck prop_tsqr_matches_householder;
          Alcotest.test_case "Q orthonormal" `Quick test_tsqr_q_orthonormal;
          Alcotest.test_case "message counts" `Quick test_tsqr_message_counts;
          Alcotest.test_case "vs householder model" `Quick test_tsqr_vs_householder_model;
          Alcotest.test_case "validation" `Quick test_tsqr_block_validation;
          Alcotest.test_case "single block" `Quick test_tsqr_single_block;
        ] );
    ]
