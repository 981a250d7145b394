(* Tests for Xsc_tile: tiled layout and conversions. *)

open Xsc_linalg
module Tile = Xsc_tile.Tile
module Rng = Xsc_util.Rng

let qcheck tc = QCheck_alcotest.to_alcotest tc

let test_create_dims () =
  let t = Tile.create ~rows:12 ~cols:8 ~nb:4 in
  Alcotest.(check int) "mt" 3 t.Tile.mt;
  Alcotest.(check int) "nt" 2 t.Tile.nt;
  Alcotest.(check int) "nb" 4 t.Tile.nb

let test_create_invalid () =
  Alcotest.check_raises "not divisible"
    (Invalid_argument "Tile.create: dimensions must be multiples of nb") (fun () ->
      ignore (Tile.create ~rows:10 ~cols:8 ~nb:4));
  Alcotest.check_raises "nb 0" (Invalid_argument "Tile.create: nb must be positive")
    (fun () -> ignore (Tile.create ~rows:8 ~cols:8 ~nb:0))

let prop_roundtrip =
  QCheck.Test.make ~name:"of_mat . to_mat is the identity" ~count:50
    QCheck.(pair (int_range 1 6) (int_range 1 5))
    (fun (bt, nb_sel) ->
      let nb = [| 1; 2; 3; 4; 8 |].(nb_sel - 1) in
      let n = bt * nb in
      let rng = Rng.create ((bt * 10) + nb) in
      let a = Mat.random rng n n in
      Mat.approx_equal ~tol:0.0 a (Tile.to_mat (Tile.of_mat ~nb a)))

let test_tile_contents () =
  let a = Mat.init 6 6 (fun i j -> float_of_int ((i * 6) + j)) in
  let t = Tile.of_mat ~nb:3 a in
  let blk = Tile.tile t 1 0 in
  Alcotest.(check (float 0.0)) "tile (1,0)[0,0] = a[3,0]" (Mat.get a 3 0) (Mat.get blk 0 0);
  Alcotest.(check (float 0.0)) "tile (1,0)[2,2] = a[5,2]" (Mat.get a 5 2) (Mat.get blk 2 2)

let test_tile_bounds () =
  let t = Tile.create ~rows:8 ~cols:8 ~nb:4 in
  Alcotest.check_raises "oob" (Invalid_argument "Tile.tile: out of bounds") (fun () ->
      ignore (Tile.tile t 2 0))

let test_get_set_global () =
  let t = Tile.create ~rows:8 ~cols:8 ~nb:4 in
  Tile.set t 5 6 42.0;
  Alcotest.(check (float 0.0)) "get back" 42.0 (Tile.get t 5 6);
  Alcotest.(check (float 0.0)) "in the right tile" 42.0 (Mat.get (Tile.tile t 1 1) 1 2)

let test_copy_independent () =
  let rng = Rng.create 5 in
  let t = Tile.of_mat ~nb:2 (Mat.random rng 4 4) in
  let c = Tile.copy t in
  Tile.set t 0 0 999.0;
  Alcotest.(check bool) "copy unaffected" true (Tile.get c 0 0 <> 999.0)

let test_pad_to () =
  let rng = Rng.create 7 in
  let a = Mat.random_spd rng 10 in
  let padded, n0 = Tile.pad_to ~nb:4 a in
  Alcotest.(check int) "original size" 10 n0;
  Alcotest.(check (pair int int)) "padded dims" (12, 12) (Mat.dims padded);
  Alcotest.(check (float 0.0)) "identity pad diag" 1.0 (Mat.get padded 11 11);
  Alcotest.(check (float 0.0)) "identity pad off" 0.0 (Mat.get padded 10 3);
  (* the pad preserves positive definiteness *)
  let f = Mat.copy padded in
  Lapack.potrf f;
  (* exact multiple: copy, same size *)
  let p2, n2 = Tile.pad_to ~nb:5 a in
  Alcotest.(check int) "no pad needed" 10 n2;
  Alcotest.(check bool) "same content" true (Mat.approx_equal ~tol:0.0 a p2)

let test_tile_vec_roundtrip () =
  let v = Array.init 12 float_of_int in
  let chunks = Tile.tile_vec ~nb:4 v in
  Alcotest.(check int) "3 chunks" 3 (Array.length chunks);
  Alcotest.(check (float 0.0)) "chunk content" 7.0 chunks.(1).(3);
  Alcotest.(check (array (float 0.0))) "roundtrip" v (Tile.untile_vec chunks);
  Alcotest.check_raises "bad length"
    (Invalid_argument "Tile.tile_vec: length not a multiple of nb") (fun () ->
      ignore (Tile.tile_vec ~nb:5 v))

let test_frobenius_matches_dense () =
  let rng = Rng.create 9 in
  let a = Mat.random rng 8 8 in
  let t = Tile.of_mat ~nb:4 a in
  Alcotest.(check (float 1e-10)) "frobenius" (Mat.frobenius a) (Tile.frobenius t)

let test_approx_equal () =
  let rng = Rng.create 13 in
  let a = Mat.random rng 8 8 in
  let t1 = Tile.of_mat ~nb:4 a and t2 = Tile.of_mat ~nb:4 a in
  Alcotest.(check bool) "equal" true (Tile.approx_equal t1 t2);
  Tile.set t2 3 3 100.0;
  Alcotest.(check bool) "detects difference" false (Tile.approx_equal t1 t2);
  let t3 = Tile.of_mat ~nb:2 a in
  Alcotest.(check bool) "different nb" false (Tile.approx_equal t1 t3)

let () =
  Alcotest.run "xsc_tile"
    [
      ( "tile",
        [
          Alcotest.test_case "create dims" `Quick test_create_dims;
          Alcotest.test_case "create invalid" `Quick test_create_invalid;
          qcheck prop_roundtrip;
          Alcotest.test_case "tile contents" `Quick test_tile_contents;
          Alcotest.test_case "tile bounds" `Quick test_tile_bounds;
          Alcotest.test_case "global get/set" `Quick test_get_set_global;
          Alcotest.test_case "copy independent" `Quick test_copy_independent;
          Alcotest.test_case "pad_to" `Quick test_pad_to;
          Alcotest.test_case "tile_vec roundtrip" `Quick test_tile_vec_roundtrip;
          Alcotest.test_case "frobenius" `Quick test_frobenius_matches_dense;
          Alcotest.test_case "approx_equal" `Quick test_approx_equal;
        ] );
    ]
