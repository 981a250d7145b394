(* Tests for Xsc_tile.Packed and the Pblas C kernels: pack/unpack round
   trips are exact, and packed factorizations are bitwise identical to the
   strided Tile/Blas/Lapack reference — the reproducibility contract that
   lets the packed layout replace the strided one without changing a single
   bit of any float64 result. *)

open Xsc_linalg
module Tile = Xsc_tile.Tile
module Packed = Xsc_tile.Packed
module Cholesky = Xsc_core.Cholesky
module Lu = Xsc_core.Lu
module Rng = Xsc_util.Rng

let qcheck tc = QCheck_alcotest.to_alcotest tc

(* The nb values from the acceptance criteria: 32 exercises the unblocked
   strided gemm, 48 and 72 the cache-blocked Kernel path — the packed C
   kernels must agree bitwise with both. *)
let nbs = [| 32; 48; 72 |]

let prop_roundtrip_f64 =
  QCheck.Test.make ~name:"D.of_mat . to_mat is bitwise identity" ~count:20
    QCheck.(pair (int_range 1 4) (int_range 0 2))
    (fun (nt, nbi) ->
      let nb = nbs.(nbi) in
      let n = nt * nb in
      let rng = Rng.create ((nt * 100) + nb) in
      let a = Mat.random rng n n in
      Mat.approx_equal ~tol:0.0 a (Packed.D.to_mat (Packed.D.of_mat ~nb a)))

let prop_roundtrip_f32 =
  QCheck.Test.make ~name:"S pack rounds once; unpack . pack is exact" ~count:20
    QCheck.(pair (int_range 1 4) (int_range 0 2))
    (fun (nt, nbi) ->
      let nb = nbs.(nbi) in
      let n = nt * nb in
      let rng = Rng.create ((nt * 101) + nb) in
      let a = Mat.random rng n n in
      let p = Packed.S.of_mat ~nb a in
      let u = Packed.S.to_mat p in
      (* each unpacked element is the correctly-rounded f32 of the source *)
      let rounded_once = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let expect = Int32.float_of_bits (Int32.bits_of_float (Mat.get a i j)) in
          if Mat.get u i j <> expect then rounded_once := false
        done
      done;
      (* and re-packing the unpacked matrix loses nothing *)
      let p2 = Packed.S.of_mat ~nb u in
      let stable = Mat.approx_equal ~tol:0.0 u (Packed.S.to_mat p2) in
      !rounded_once && stable)

let test_tiled_conversions () =
  let rng = Rng.create 21 in
  let a = Mat.random rng 96 96 in
  let t = Tile.of_mat ~nb:32 a in
  let p = Packed.D.of_tiled t in
  Alcotest.(check bool) "of_tiled matches of_mat" true
    (Mat.approx_equal ~tol:0.0 a (Packed.D.to_mat p));
  let t2 = Packed.D.to_tiled p in
  Alcotest.(check bool) "to_tiled round-trips" true (Tile.approx_equal ~tol:0.0 t t2)

let test_offsets_and_access () =
  let p = Packed.D.create ~n:8 ~nb:4 in
  Alcotest.(check int) "tile (1,1) offset" 48 (Packed.D.off p 1 1);
  Packed.D.set p 5 6 42.0;
  Alcotest.(check (float 0.0)) "global get" 42.0 (Packed.D.get p 5 6);
  Alcotest.(check (float 0.0)) "raw slot" 42.0 p.Packed.D.buf.{48 + (1 * 4) + 2}

(* Strided sequential Cholesky vs packed sequential Cholesky: same program
   order, kernels contracted to identical operation order => bitwise. *)
let test_potrf_bitwise nb () =
  let nt = 3 in
  let n = nt * nb in
  let rng = Rng.create (1000 + nb) in
  let a = Mat.random_spd rng n in
  let t = Tile.of_mat ~nb a in
  Cholesky.factor t;
  let p = Packed.D.of_mat ~nb a in
  Packed.D.potrf p;
  Alcotest.(check bool)
    (Printf.sprintf "packed potrf bitwise at nb=%d" nb)
    true
    (Mat.approx_equal ~tol:0.0 (Tile.to_mat t) (Packed.D.to_mat p))

let test_getrf_bitwise nb () =
  let nt = 3 in
  let n = nt * nb in
  let rng = Rng.create (2000 + nb) in
  (* diagonally dominant => nopiv LU is stable and pivot-free *)
  let a = Mat.random rng n n in
  for i = 0 to n - 1 do
    Mat.set a i i (Mat.get a i i +. float_of_int n)
  done;
  let t = Tile.of_mat ~nb a in
  Lu.factor t;
  let p = Packed.D.of_mat ~nb a in
  Packed.D.getrf_nopiv p;
  Alcotest.(check bool)
    (Printf.sprintf "packed getrf bitwise at nb=%d" nb)
    true
    (Mat.approx_equal ~tol:0.0 (Tile.to_mat t) (Packed.D.to_mat p))

(* Executor identity over the closure-free op DAG: every executor drives
   the same packed interpreter, and any DAG-consistent interleaving applies
   each tile update in the same per-element order — so Sequential, Dataflow
   and Forkjoin must agree bitwise with the strided reference. *)
let test_factor_packed_executors_bitwise () =
  let nb = 32 in
  let nt = 4 in
  let n = nt * nb in
  let rng = Rng.create 4001 in
  let a = Mat.random_spd rng n in
  let t = Tile.of_mat ~nb a in
  Cholesky.factor t;
  let reference = Tile.to_mat t in
  List.iter
    (fun (label, exec) ->
      let p = Packed.D.of_mat ~nb a in
      Cholesky.factor_packed ~exec p;
      Alcotest.(check bool)
        ("cholesky " ^ label ^ " bitwise")
        true
        (Mat.approx_equal ~tol:0.0 reference (Packed.D.to_mat p)))
    [
      ("sequential", Xsc_core.Runtime_api.Sequential);
      ("dataflow", Xsc_core.Runtime_api.Dataflow 4);
      ("forkjoin", Xsc_core.Runtime_api.Forkjoin 4);
    ]

let test_lu_packed_executors_bitwise () =
  let nb = 32 in
  let nt = 4 in
  let n = nt * nb in
  let rng = Rng.create 4002 in
  let a = Mat.random rng n n in
  for i = 0 to n - 1 do
    Mat.set a i i (Mat.get a i i +. float_of_int n)
  done;
  let t = Tile.of_mat ~nb a in
  Lu.factor t;
  let reference = Tile.to_mat t in
  List.iter
    (fun (label, exec) ->
      let p = Packed.D.of_mat ~nb a in
      Lu.factor_packed ~exec p;
      Alcotest.(check bool)
        ("lu " ^ label ^ " bitwise")
        true
        (Mat.approx_equal ~tol:0.0 reference (Packed.D.to_mat p)))
    [
      ("sequential", Xsc_core.Runtime_api.Sequential);
      ("dataflow", Xsc_core.Runtime_api.Dataflow 4);
      ("forkjoin", Xsc_core.Runtime_api.Forkjoin 4);
    ]

(* One program, several forms: the strided interpreter over [dag_ops], the
   packed interpreter over the same DAG, and the sequential packed oracle
   (written out independently of the task program) must agree bitwise on
   any tiling and executor. *)
let prop_forms_agree ~name ~seed ~make_input ~factor ~factor_packed ~oracle =
  let nbs = [| 4; 8; 16; 32 |] in
  let execs =
    Xsc_core.Runtime_api.[| Sequential; Dataflow 2; Forkjoin 3 |]
  in
  QCheck.Test.make ~name ~count:25
    QCheck.(triple (int_range 1 6) (int_range 0 3) (int_range 0 2))
    (fun (nt, nbi, ei) ->
      let nb = nbs.(nbi) and exec = execs.(ei) in
      let a = make_input (Rng.create (seed + (nt * 100) + nb)) (nt * nb) in
      let t = Tile.of_mat ~nb a in
      factor ~exec t;
      let p = Packed.D.of_mat ~nb a in
      factor_packed ~exec p;
      let o = Packed.D.of_mat ~nb a in
      oracle o;
      let expect = Packed.D.to_mat o in
      Mat.approx_equal ~tol:0.0 expect (Tile.to_mat t)
      && Mat.approx_equal ~tol:0.0 expect (Packed.D.to_mat p))

let prop_cholesky_forms_agree =
  prop_forms_agree ~name:"cholesky: tile interp = packed interp = Packed.D.potrf" ~seed:5001
    ~make_input:Mat.random_spd
    ~factor:(fun ~exec t -> Cholesky.factor ~exec t)
    ~factor_packed:(fun ~exec p -> Cholesky.factor_packed ~exec p)
    ~oracle:Packed.D.potrf

let prop_lu_forms_agree =
  prop_forms_agree ~name:"lu: tile interp = packed interp = Packed.D.getrf_nopiv" ~seed:6001
    ~make_input:Mat.random_diag_dominant
    ~factor:(fun ~exec t -> Lu.factor ~exec t)
    ~factor_packed:(fun ~exec p -> Lu.factor_packed ~exec p)
    ~oracle:Packed.D.getrf_nopiv

(* The task program is closure-free: every task of [dag_ops] carries an op,
   named by [Task.op_name], and no closure — so one DAG serves every
   storage layout, and the server's plans hold no tile views. *)
let test_dag_ops_closure_free () =
  let module Task = Xsc_runtime.Task in
  List.iter
    (fun (label, dag) ->
      Array.iteri
        (fun id (t : Task.t) ->
          Alcotest.(check int) (label ^ " id in program order") id t.Task.id;
          Alcotest.(check bool) (label ^ " no closure") true (t.Task.run = None);
          match t.Task.op with
          | Some op -> Alcotest.(check string) (label ^ " op name") (Task.op_name op) t.Task.name
          | None -> Alcotest.failf "%s task %s has no op" label t.Task.name)
        dag.Xsc_runtime.Dag.tasks)
    [
      ("cholesky", Cholesky.dag_ops ~nt:5 ~nb:16);
      ("lu", Lu.dag_ops ~nt:5 ~nb:16);
    ]

let test_gemm_matches_reference () =
  let n = 96 and nb = 32 in
  let rng = Rng.create 31 in
  let a = Mat.random rng n n and b = Mat.random rng n n in
  let c = Mat.create n n in
  Blas.gemm ~alpha:1.0 a b ~beta:0.0 c;
  let pa = Packed.D.of_mat ~nb a and pb = Packed.D.of_mat ~nb b in
  let pc = Packed.D.create ~n ~nb in
  Packed.D.gemm ~alpha:1.0 pa pb ~beta:0.0 pc;
  Alcotest.(check bool) "packed gemm ~ reference" true
    (Mat.approx_equal ~tol:1e-10 c (Packed.D.to_mat pc))

let test_potrf_singular () =
  let p = Packed.D.create ~n:4 ~nb:4 in
  (* zero matrix: first pivot fails *)
  Alcotest.check_raises "singular" (Pblas.Singular 0) (fun () -> Packed.D.potrf p)

(* ---- single tiles against the strided references ----

   The whole-factorization tests above only ever feed the tile kernels
   random SPD data, which holds no zero coefficient. These drive one tile
   through each kernel directly and compare every bit (a sign of zero
   included) with the Blas/Lapack call it transcribes. The triangular
   factors carry exact zeros below the diagonal (the zero-skip: without
   it, -0.0 - (-0.0) turns a -0.0 of b into +0.0) and sometimes a unit
   diagonal (the [<> 1.0] divide guard); b carries -0.0 entries. nb runs
   over 1..80, so every register tier and remainder path is hit. *)

let mat_bits_equal (m : Mat.t) (buf : Pblas.f64) =
  let ok = ref (Bigarray.Array1.dim buf = Array.length m.Mat.data) in
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float buf.{i} then ok := false)
    m.Mat.data;
  !ok

let buf_of_mat (m : Mat.t) =
  Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout m.Mat.data

(* A triangular factor (lower, or upper when [upper]) with exact zeros off
   the diagonal, a unit diagonal when [unit], garbage in the other
   triangle (no kernel may read it). *)
let tri_factor rng ~nb ~upper ~unit =
  Mat.init nb nb (fun i j ->
      let inside = if upper then j > i else i > j in
      if i = j then if unit then 1.0 else 1.0 +. Rng.uniform rng
      else if inside then
        if Rng.int rng 3 = 0 then (if Rng.int rng 2 = 0 then 0.0 else -0.0)
        else Rng.gaussian rng
      else Float.nan)

let rhs_with_neg_zeros rng ~nb =
  Mat.init nb nb (fun _ _ -> if Rng.int rng 4 = 0 then -0.0 else Rng.gaussian rng)

let prop_tile_kernels_bitwise =
  QCheck.Test.make ~name:"single tiles: trsm_rlt/ru/llu, syrk, potrf bitwise vs Blas/Lapack"
    ~count:80
    QCheck.(pair (int_range 1 80) (int_range 0 100_000))
    (fun (nb, seed) ->
      let rng = Rng.create seed in
      let unit = Rng.int rng 2 = 0 in
      let trsm_case ~upper ~unit run reference =
        let a = tri_factor rng ~nb ~upper ~unit in
        let b = rhs_with_neg_zeros rng ~nb in
        let pa = buf_of_mat a and pb = buf_of_mat b in
        run pa pb;
        reference a b;
        mat_bits_equal b pb
      in
      let rlt =
        trsm_case ~upper:false ~unit
          (fun pa pb -> Pblas.D.trsm_rlt pa 0 pb 0 ~nb)
          (fun a b ->
            Blas.trsm ~side:Blas.Right ~uplo:Blas.Lower ~trans:Blas.Trans ~diag:Blas.NonUnit
              ~alpha:1.0 a b)
      in
      let ru =
        trsm_case ~upper:true ~unit
          (fun pa pb -> Pblas.D.trsm_ru pa 0 pb 0 ~nb)
          (fun a b ->
            Blas.trsm ~side:Blas.Right ~uplo:Blas.Upper ~trans:Blas.NoTrans ~diag:Blas.NonUnit
              ~alpha:1.0 a b)
      in
      (* trsm_llu never reads the diagonal: it is U's in a packed LU *)
      let llu =
        trsm_case ~upper:false ~unit:false
          (fun pa pb -> Pblas.D.trsm_llu pa 0 pb 0 ~nb)
          (fun a b ->
            Blas.trsm ~side:Blas.Left ~uplo:Blas.Lower ~trans:Blas.NoTrans ~diag:Blas.Unit
              ~alpha:1.0 a b)
      in
      let syrk =
        let a = rhs_with_neg_zeros rng ~nb and c = rhs_with_neg_zeros rng ~nb in
        let alpha, beta =
          if unit then (-1.0, 1.0) else (Rng.gaussian rng, Rng.gaussian rng)
        in
        let pa = buf_of_mat a and pc = buf_of_mat c in
        Pblas.D.syrk_ln ~alpha pa 0 ~beta pc 0 ~nb;
        Blas.syrk ~uplo:Blas.Lower ~trans:Blas.NoTrans ~alpha a ~beta c;
        mat_bits_equal c pc
      in
      let potrf =
        let a = Mat.random_spd rng nb in
        let pa = buf_of_mat a in
        Pblas.D.potrf pa 0 ~nb;
        Lapack.potrf a;
        mat_bits_equal a pa
      in
      rlt && ru && llu && syrk && potrf)

(* A kernel whose per-thread scratch tile cannot be allocated must raise,
   not return with the tile unsolved. nb = 2^30 asks for 2^60 elements,
   which no allocator grants; each stub (gemm_nt and syrk_ln under the
   default configs, which pack) gives up before it reads an operand, so
   one-element buffers stand in for the tiles. A normal call afterwards
   finds the scratch usable again. *)
let test_scratch_failure () =
  let nb = 1 lsl 30 in
  let d () = Bigarray.Array1.init Bigarray.float64 Bigarray.c_layout 1 (fun _ -> 0.5) in
  let s () = Bigarray.Array1.init Bigarray.float32 Bigarray.c_layout 1 (fun _ -> 0.5) in
  let a = d () and b = d () and c = d () in
  let sa = s () and sb = s () and sc = s () in
  List.iter
    (fun (name, run) -> Alcotest.check_raises name Out_of_memory run)
    [
      ("D.gemm_nt", fun () -> Pblas.D.gemm_nt ~alpha:1.0 a 0 b 0 c 0 ~nb);
      ("D.syrk_ln", fun () -> Pblas.D.syrk_ln ~alpha:1.0 a 0 ~beta:1.0 c 0 ~nb);
      ("D.trsm_rlt", fun () -> Pblas.D.trsm_rlt a 0 b 0 ~nb);
      ("D.trsm_ru", fun () -> Pblas.D.trsm_ru a 0 b 0 ~nb);
      ("D.potrf", fun () -> Pblas.D.potrf c 0 ~nb);
      ("S.gemm_nt", fun () -> Pblas.S.gemm_nt ~alpha:1.0 sa 0 sb 0 sc 0 ~nb);
      ("S.syrk_ln", fun () -> Pblas.S.syrk_ln ~alpha:1.0 sa 0 ~beta:1.0 sc 0 ~nb);
      ("S.trsm_rlt", fun () -> Pblas.S.trsm_rlt sa 0 sb 0 ~nb);
      ("S.potrf", fun () -> Pblas.S.potrf sc 0 ~nb);
    ];
  List.iter
    (fun buf -> Alcotest.(check (float 0.0)) "operand untouched" 0.5 buf.{0})
    [ a; b; c ];
  List.iter
    (fun buf -> Alcotest.(check (float 0.0)) "f32 operand untouched" 0.5 buf.{0})
    [ sa; sb; sc ];
  let nb = 8 in
  let rng = Rng.create 11 in
  let l = tri_factor rng ~nb ~upper:false ~unit:false and x = rhs_with_neg_zeros rng ~nb in
  let px = buf_of_mat x in
  Pblas.D.trsm_rlt (buf_of_mat l) 0 px 0 ~nb;
  Blas.trsm ~side:Blas.Right ~uplo:Blas.Lower ~trans:Blas.Trans ~alpha:1.0 l x;
  Alcotest.(check bool) "scratch usable again" true (mat_bits_equal x px)

(* A tile that is SPD up to column [col] and has a negative diagonal
   there: the packed factor must stop at the same column as Lapack.potrf.
   nb=64 col=40 fails inside a 16-lane block; nb=72 col=68 in the 8-lane
   remainder tier; nb=70 col=66 among the scalar remainder lines. *)
let test_potrf_singular_column () =
  List.iter
    (fun (nb, col) ->
      let rng = Rng.create (nb + col) in
      let a = Mat.random_spd rng nb in
      Mat.set a col col (-1.0);
      let lapack =
        match Lapack.potrf (Mat.copy a) with
        | () -> -1
        | exception Lapack.Singular j -> j
      in
      let packed =
        match Pblas.D.potrf (buf_of_mat a) 0 ~nb with
        | () -> -1
        | exception Pblas.Singular j -> j
      in
      Alcotest.(check int) (Printf.sprintf "Lapack fails at nb=%d" nb) col lapack;
      Alcotest.(check int) (Printf.sprintf "packed fails where Lapack does, nb=%d" nb) lapack
        packed)
    [ (64, 40); (72, 68); (70, 66) ]

(* ---- a float32 oracle ----

   The f32 kernels have no strided twin, so these references spell out
   their contracts in OCaml with every + - * / sqrt rounded by
   [Scalar.Fp32]: a double operation on float32 operands, rounded once to
   float32, is the correctly rounded float32 result (53 >= 2*24 + 2), so
   the references are exact and the check is bitwise. *)

module F = Scalar.Fp32

let f32_buf rng ~nb f =
  let b = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout (nb * nb) in
  for i = 0 to (nb * nb) - 1 do
    b.{i} <- f rng i
  done;
  b

let f32_tile_equal (expect : float array) (got : Pblas.f32) =
  let ok = ref true in
  Array.iteri
    (fun i x -> if Int64.bits_of_float x <> Int64.bits_of_float got.{i} then ok := false)
    expect;
  !ok

let array_of_f32 (b : Pblas.f32) = Array.init (Bigarray.Array1.dim b) (fun i -> b.{i})

(* c += alpha * (a * op(b)): a fresh k-ascending accumulator, then one
   update; [nt] reads b as b[j][k]. *)
let ref_gemm_s ~nt ~nb ~alpha a b c =
  let alpha = F.round alpha in
  for i = 0 to nb - 1 do
    for j = 0 to nb - 1 do
      let s = ref 0.0 in
      for k = 0 to nb - 1 do
        let bkj = if nt then b.((j * nb) + k) else b.((k * nb) + j) in
        s := F.add !s (F.mul a.((i * nb) + k) bkj)
      done;
      c.((i * nb) + j) <- F.add c.((i * nb) + j) (F.mul alpha !s)
    done
  done

let ref_syrk_s ~nb ~alpha ~beta a c =
  let alpha = F.round alpha and beta = F.round beta in
  for i = 0 to nb - 1 do
    for j = 0 to i do
      let s = ref 0.0 in
      for k = 0 to nb - 1 do
        s := F.add !s (F.mul a.((i * nb) + k) a.((j * nb) + k))
      done;
      c.((i * nb) + j) <- F.add (F.mul alpha !s) (F.mul beta c.((i * nb) + j))
    done
  done

let ref_trsm_rlt_s ~nb a b =
  for i = 0 to nb - 1 do
    for j = 0 to nb - 1 do
      let x = ref b.((i * nb) + j) in
      for l = 0 to j - 1 do
        let alj = a.((j * nb) + l) in
        if alj <> 0.0 then x := F.sub !x (F.mul b.((i * nb) + l) alj)
      done;
      let d = a.((j * nb) + j) in
      if d <> 1.0 then x := F.div !x d;
      b.((i * nb) + j) <- !x
    done
  done

let ref_potrf_s ~nb a =
  for j = 0 to nb - 1 do
    let d = ref a.((j * nb) + j) in
    for k = 0 to j - 1 do
      let l = a.((j * nb) + k) in
      d := F.sub !d (F.mul l l)
    done;
    if !d <= 0.0 then raise (Pblas.Singular j);
    let ljj = F.sqrt !d in
    a.((j * nb) + j) <- ljj;
    for i = j + 1 to nb - 1 do
      let acc = ref a.((i * nb) + j) in
      for k = 0 to j - 1 do
        acc := F.sub !acc (F.mul a.((i * nb) + k) a.((j * nb) + k))
      done;
      a.((i * nb) + j) <- F.div !acc ljj
    done
  done

let test_f32_oracle () =
  List.iter
    (fun nb ->
      let rng = Rng.create (7000 + nb) in
      let gauss rng _ = Rng.gaussian rng in
      let check name expect got =
        Alcotest.(check bool)
          (Printf.sprintf "%s nb=%d" name nb)
          true (f32_tile_equal expect got)
      in
      List.iter
        (fun nt ->
          let a = f32_buf rng ~nb gauss and b = f32_buf rng ~nb gauss in
          let c = f32_buf rng ~nb gauss in
          let expect = array_of_f32 c in
          ref_gemm_s ~nt ~nb ~alpha:(-0.7) (array_of_f32 a) (array_of_f32 b) expect;
          if nt then Pblas.S.gemm_nt ~alpha:(-0.7) a 0 b 0 c 0 ~nb
          else Pblas.S.gemm_nn ~alpha:(-0.7) a 0 b 0 c 0 ~nb;
          check (if nt then "gemm_nt" else "gemm_nn") expect c)
        [ false; true ];
      (let a = f32_buf rng ~nb gauss and c = f32_buf rng ~nb gauss in
       let expect = array_of_f32 c in
       ref_syrk_s ~nb ~alpha:(-1.0) ~beta:0.3 (array_of_f32 a) expect;
       Pblas.S.syrk_ln ~alpha:(-1.0) a 0 ~beta:0.3 c 0 ~nb;
       check "syrk_ln" expect c);
      (let l = f32_buf rng ~nb (fun rng i ->
           let r = i / nb and c = i mod nb in
           if r = c then 1.0 +. Rng.uniform rng
           else if c < r && Rng.int rng 3 > 0 then Rng.gaussian rng
           else 0.0)
       in
       let b = f32_buf rng ~nb gauss in
       let expect = array_of_f32 b in
       ref_trsm_rlt_s ~nb (array_of_f32 l) expect;
       Pblas.S.trsm_rlt l 0 b 0 ~nb;
       check "trsm_rlt" expect b);
      let spd = Mat.random_spd rng nb in
      let a = f32_buf rng ~nb (fun _ i -> spd.Mat.data.(i)) in
      let expect = array_of_f32 a in
      ref_potrf_s ~nb expect;
      Pblas.S.potrf a 0 ~nb;
      check "potrf" expect a)
    [ 8; 20; 32; 64 ]

(* Float32 Cholesky: genuine single-precision arithmetic, so the factor
   carries O(eps_32) error relative to the double factor — present (it is
   a real f32 computation, not double-in-disguise) but bounded. *)
let test_potrf_f32_accuracy () =
  let nb = 32 in
  let nt = 3 in
  let n = nt * nb in
  let rng = Rng.create 3032 in
  let a = Mat.random_spd rng n in
  let pd = Packed.D.of_mat ~nb a in
  Packed.D.potrf pd;
  let ld = Packed.D.to_mat pd in
  let ps = Packed.S.of_mat ~nb a in
  Packed.S.potrf ps;
  let ls = Packed.S.to_mat ps in
  let max_rel = ref 0.0 and differs = ref false in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let d = Mat.get ld i j and s = Mat.get ls i j in
      if d <> s then differs := true;
      let scale = Float.max 1.0 (Float.abs d) in
      max_rel := Float.max !max_rel (Float.abs (d -. s) /. scale)
    done
  done;
  Alcotest.(check bool) "f32 factor differs from f64 (real low precision)" true !differs;
  Alcotest.(check bool)
    (Printf.sprintf "f32 factor within 1e-3 of f64 (got %g)" !max_rel)
    true (!max_rel < 1e-3)

(* ---- kernel variants: the autotuner's correctness contract ----

   Every runtime-selectable kernel config (micro-tile shape x pack
   strategy x prefetch) must compute bit-identical results: a variant
   only changes which independent k-ascending accumulator chains run
   concurrently, never the operation order within a chain. The tuner
   relies on this to search over speed alone, so sweep the FULL config
   space — all shapes, both pack strategies, prefetch on and off — and
   demand tol 0.0 against the fixed references. *)

let all_cfgs () =
  List.concat_map
    (fun shape ->
      List.concat_map
        (fun pack ->
          List.map (fun prefetch -> { Pblas.shape; pack; prefetch }) [ false; true ])
        [ true; false ])
    (List.init (Array.length Pblas.shapes) Fun.id)

let cfg_label cfg =
  let mr, nr = Pblas.shapes.(cfg.Pblas.shape) in
  Printf.sprintf "%dx%d pack=%b pf=%b" mr nr cfg.Pblas.pack cfg.Pblas.prefetch

let with_cfg prec cfg f =
  Fun.protect ~finally:Pblas.reset_cfgs (fun () ->
      List.iter (fun k -> Pblas.set_cfg prec k cfg) Pblas.all_kernels;
      f ())

(* potrf exercises gemm_nt/syrk_ln/trsm_rlt, getrf_nopiv exercises
   gemm_nn plus the fixed triangular kernels — together every tunable
   dispatch point, judged against the strided Tile/Blas/Lapack path. Past
   nb=32 the sweep runs at nb = 20, 24 and 40: 8x16 leaves a j-remainder
   at each (4, 8 and 8 columns) and an i-remainder at 20, and mr = 6 an
   i-remainder at 20 and 40, so the row-tail and 1 x nr cascades are
   compared at tol 0.0 too. *)
let variant_nbs = [ 32; 20; 24; 40 ]

let test_variants_bitwise_f64 () =
  List.iter
    (fun nb ->
      let n = 3 * nb in
      let rng = Rng.create (5001 + nb) in
      let a = Mat.random_spd rng n in
      let t = Tile.of_mat ~nb a in
      Cholesky.factor t;
      let ref_chol = Tile.to_mat t in
      let d = Mat.random rng n n in
      for i = 0 to n - 1 do
        Mat.set d i i (Mat.get d i i +. float_of_int n)
      done;
      let t2 = Tile.of_mat ~nb d in
      Lu.factor t2;
      let ref_lu = Tile.to_mat t2 in
      List.iter
        (fun cfg ->
          with_cfg Pblas.F64 cfg (fun () ->
              let p = Packed.D.of_mat ~nb a in
              Packed.D.potrf p;
              Alcotest.(check bool)
                (Printf.sprintf "potrf bitwise nb=%d %s" nb (cfg_label cfg))
                true
                (Mat.approx_equal ~tol:0.0 ref_chol (Packed.D.to_mat p));
              let q = Packed.D.of_mat ~nb d in
              Packed.D.getrf_nopiv q;
              Alcotest.(check bool)
                (Printf.sprintf "getrf bitwise nb=%d %s" nb (cfg_label cfg))
                true
                (Mat.approx_equal ~tol:0.0 ref_lu (Packed.D.to_mat q))))
        (all_cfgs ()))
    variant_nbs

(* f32 has no strided reference, so the contract is variant-vs-variant:
   every config reproduces the default config's factor exactly. *)
let test_variants_bitwise_f32 () =
  List.iter
    (fun nb ->
      let n = 3 * nb in
      let rng = Rng.create (5002 + nb) in
      let a = Mat.random_spd rng n in
      Pblas.reset_cfgs ();
      let p0 = Packed.S.of_mat ~nb a in
      Packed.S.potrf p0;
      let reference = Packed.S.to_mat p0 in
      List.iter
        (fun cfg ->
          with_cfg Pblas.F32 cfg (fun () ->
              let p = Packed.S.of_mat ~nb a in
              Packed.S.potrf p;
              Alcotest.(check bool)
                (Printf.sprintf "f32 potrf bitwise nb=%d %s" nb (cfg_label cfg))
                true
                (Mat.approx_equal ~tol:0.0 reference (Packed.S.to_mat p))))
        (all_cfgs ()))
    variant_nbs

(* nb=72 leaves a 72 mod 32 j-remainder and i-remainders for every
   mr > 1 — the tail cascade must be bitwise too, not just full tiles. *)
let test_variants_bitwise_remainders () =
  let nb = 72 in
  let n = 2 * nb in
  let rng = Rng.create 5003 in
  let a = Mat.random_spd rng n in
  let t = Tile.of_mat ~nb a in
  Cholesky.factor t;
  let reference = Tile.to_mat t in
  List.iter
    (fun cfg ->
      with_cfg Pblas.F64 cfg (fun () ->
          let p = Packed.D.of_mat ~nb a in
          Packed.D.potrf p;
          Alcotest.(check bool)
            ("potrf nb=72 bitwise " ^ cfg_label cfg)
            true
            (Mat.approx_equal ~tol:0.0 reference (Packed.D.to_mat p))))
    (all_cfgs ())

let test_set_cfg_validation () =
  Fun.protect ~finally:Pblas.reset_cfgs (fun () ->
      Alcotest.check_raises "shape out of range"
        (Invalid_argument "Pblas.set_cfg: shape id out of range") (fun () ->
          Pblas.set_cfg Pblas.F64 Pblas.Gemm_nn
            { Pblas.shape = Array.length Pblas.shapes; pack = true; prefetch = false });
      Pblas.set_cfg Pblas.F32 Pblas.Syrk_ln
        { Pblas.default_cfg with prefetch = true };
      Alcotest.(check bool) "mirror tracks the C side" true
        (Pblas.cfg Pblas.F32 Pblas.Syrk_ln
        = { Pblas.default_cfg with prefetch = true });
      Pblas.reset_cfgs ();
      Alcotest.(check bool) "reset restores default" true
        (Pblas.cfg Pblas.F32 Pblas.Syrk_ln = Pblas.default_cfg))

let test_potrs_f32 () =
  let nb = 32 in
  let n = 2 * nb in
  let rng = Rng.create 77 in
  let a = Mat.random_spd rng n in
  let x_true = Array.init n (fun i -> 1.0 +. (float_of_int i /. float_of_int n)) in
  let b = Array.make n 0.0 in
  Blas.gemv ~alpha:1.0 a x_true ~beta:0.0 b;
  let p = Packed.S.of_mat ~nb a in
  Packed.S.potrf p;
  let x = Array.copy b in
  Packed.S.potrs p x;
  let max_err = ref 0.0 in
  for i = 0 to n - 1 do
    max_err := Float.max !max_err (Float.abs (x.(i) -. x_true.(i)))
  done;
  (* single-precision factor: expect ~1e-4 forward error, far from exact
     but good enough to contract as a refinement solver *)
  Alcotest.(check bool)
    (Printf.sprintf "f32 solve near truth (err %g)" !max_err)
    true (!max_err < 1e-2)

(* ---- the O(n^2) pack and solve loops ----
   pack_padded and the packed solves walk tiles with hoisted offsets; the
   references below are the element-wise definitions they replaced. Every
   n here is padded up to a multiple of nb with the identity, as the
   serving layer does. *)

let solve_nbs = [ 16; 48; 64 ]
let solve_sizes nb = [ 1; nb - 1; nb; (2 * nb) + 5; 130 ]
let padded_to ~nb n = (n + nb - 1) / nb * nb

let bits_equal x y =
  Array.length x = Array.length y
  && Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       x y

let for_each_size f =
  List.iter (fun nb -> List.iter (fun n -> f ~nb ~n) (solve_sizes nb)) solve_nbs

let packed_padded ~nb a =
  let p = Packed.D.create ~n:(padded_to ~nb a.Mat.rows) ~nb in
  Packed.D.pack_padded p a;
  p

(* With [~lower:true] the tiles above the diagonal are left as they were
   (still NaN here); every other element follows the same definition. *)
let test_pack_padded_dirty () =
  for_each_size (fun ~nb ~n ->
      let rng = Rng.create ((n * 7) + nb) in
      let a = Mat.random rng n n in
      List.iter
        (fun lower ->
          let p = Packed.D.create ~n:(padded_to ~nb n) ~nb in
          (* a recycled buffer: every element holds garbage before the pack *)
          Bigarray.Array1.fill p.Packed.D.buf Float.nan;
          Packed.D.pack_padded ~lower p a;
          let ok = ref true in
          for i = 0 to p.Packed.D.n - 1 do
            for j = 0 to p.Packed.D.n - 1 do
              let expect =
                if lower && j / nb > i / nb then Float.nan
                else if i < n && j < n then Mat.get a i j
                else if i = j then 1.0
                else 0.0
              in
              if Int64.bits_of_float (Packed.D.get p i j) <> Int64.bits_of_float expect then
                ok := false
            done
          done;
          Alcotest.(check bool)
            (Printf.sprintf "pack_padded n=%d nb=%d lower=%b" n nb lower)
            true !ok)
        [ false; true ])

(* Packed as the serving layer packs a Cholesky operand: lower tiles only,
   over a NaN-filled buffer, so a factor or solve that read an upper tile
   could not come out bitwise equal. *)
let test_potrs_bitwise () =
  for_each_size (fun ~nb ~n ->
      let rng = Rng.create ((n * 11) + nb) in
      let p = Packed.D.create ~n:(padded_to ~nb n) ~nb in
      Bigarray.Array1.fill p.Packed.D.buf Float.nan;
      Packed.D.pack_padded ~lower:true p (Mat.random_spd rng n);
      Packed.D.potrf p;
      let b = Vec.random rng p.Packed.D.n in
      let x = Array.copy b in
      Packed.D.potrs p x;
      let y = Array.copy b in
      Lapack.potrs (Packed.D.to_mat p) y;
      Alcotest.(check bool) (Printf.sprintf "potrs n=%d nb=%d" n nb) true (bits_equal x y))

let test_getrs_nopiv_bitwise () =
  for_each_size (fun ~nb ~n ->
      let rng = Rng.create ((n * 13) + nb) in
      let p = packed_padded ~nb (Mat.random_diag_dominant rng n) in
      Packed.D.getrf_nopiv p;
      let b = Vec.random rng p.Packed.D.n in
      let x = Array.copy b in
      Packed.D.getrs_nopiv p x;
      let lu = Packed.D.to_mat p in
      let y = Array.copy b in
      Blas.trsv ~uplo:Blas.Lower ~diag:Blas.Unit lu y;
      Blas.trsv ~uplo:Blas.Upper ~diag:Blas.NonUnit lu y;
      Alcotest.(check bool)
        (Printf.sprintf "getrs_nopiv n=%d nb=%d" n nb)
        true (bits_equal x y))

let test_potrs_f32_bitwise () =
  for_each_size (fun ~nb ~n ->
      let rng = Rng.create ((n * 17) + nb) in
      let a, _ = Tile.pad_to ~nb (Mat.random_spd rng n) in
      let p = Packed.S.of_mat ~nb a in
      Packed.S.potrf p;
      let b = Vec.random rng p.Packed.S.n in
      let x = Array.copy b in
      Packed.S.potrs p x;
      let y = Array.copy b in
      Lapack.potrs (Packed.S.to_mat p) y;
      Alcotest.(check bool)
        (Printf.sprintf "f32 potrs n=%d nb=%d" n nb)
        true (bits_equal x y))

let () =
  Alcotest.run "xsc_packed"
    [
      ( "layout",
        [
          qcheck prop_roundtrip_f64;
          qcheck prop_roundtrip_f32;
          Alcotest.test_case "tiled conversions" `Quick test_tiled_conversions;
          Alcotest.test_case "offsets and access" `Quick test_offsets_and_access;
        ] );
      ( "bitwise",
        Array.to_list
          (Array.map
             (fun nb ->
               Alcotest.test_case
                 (Printf.sprintf "potrf nb=%d" nb)
                 `Quick (test_potrf_bitwise nb))
             nbs)
        @ Array.to_list
            (Array.map
               (fun nb ->
                 Alcotest.test_case
                   (Printf.sprintf "getrf nb=%d" nb)
                   `Quick (test_getrf_bitwise nb))
               nbs) );
      ( "executors",
        [
          Alcotest.test_case "cholesky bitwise across executors" `Quick
            test_factor_packed_executors_bitwise;
          Alcotest.test_case "lu bitwise across executors" `Quick
            test_lu_packed_executors_bitwise;
          Alcotest.test_case "dag_ops tasks carry ops, no closures" `Quick
            test_dag_ops_closure_free;
          qcheck prop_cholesky_forms_agree;
          qcheck prop_lu_forms_agree;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "gemm vs reference" `Quick test_gemm_matches_reference;
          Alcotest.test_case "potrf singular" `Quick test_potrf_singular;
          qcheck prop_tile_kernels_bitwise;
          Alcotest.test_case "potrf singular at a later column" `Quick
            test_potrf_singular_column;
          Alcotest.test_case "scratch allocation failure raises" `Quick
            test_scratch_failure;
        ] );
      ( "float32",
        [
          Alcotest.test_case "potrf accuracy" `Quick test_potrf_f32_accuracy;
          Alcotest.test_case "potrs solve" `Quick test_potrs_f32;
          Alcotest.test_case "single tiles vs a rounded oracle" `Quick test_f32_oracle;
        ] );
      ( "solves",
        [
          Alcotest.test_case "pack_padded on a dirty buffer" `Quick test_pack_padded_dirty;
          Alcotest.test_case "potrs bitwise vs Lapack.potrs" `Quick test_potrs_bitwise;
          Alcotest.test_case "getrs_nopiv bitwise vs trsv" `Quick test_getrs_nopiv_bitwise;
          Alcotest.test_case "f32 potrs bitwise vs widened Lapack.potrs" `Quick
            test_potrs_f32_bitwise;
        ] );
      ( "variants",
        [
          Alcotest.test_case "f64 sweep bitwise" `Quick test_variants_bitwise_f64;
          Alcotest.test_case "f32 sweep bitwise" `Quick test_variants_bitwise_f32;
          Alcotest.test_case "remainder sweep bitwise" `Quick
            test_variants_bitwise_remainders;
          Alcotest.test_case "set_cfg validation" `Quick test_set_cfg_validation;
        ] );
    ]
