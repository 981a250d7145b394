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
   dispatch point, judged against the strided Tile/Blas/Lapack path. *)
let test_variants_bitwise_f64 () =
  let nb = 32 in
  let n = 3 * nb in
  let rng = Rng.create 5001 in
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
            ("potrf bitwise " ^ cfg_label cfg)
            true
            (Mat.approx_equal ~tol:0.0 ref_chol (Packed.D.to_mat p));
          let q = Packed.D.of_mat ~nb d in
          Packed.D.getrf_nopiv q;
          Alcotest.(check bool)
            ("getrf bitwise " ^ cfg_label cfg)
            true
            (Mat.approx_equal ~tol:0.0 ref_lu (Packed.D.to_mat q))))
    (all_cfgs ())

(* f32 has no strided reference, so the contract is variant-vs-variant:
   every config reproduces the default config's factor exactly. *)
let test_variants_bitwise_f32 () =
  let nb = 32 in
  let n = 3 * nb in
  let rng = Rng.create 5002 in
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
            ("f32 potrf bitwise " ^ cfg_label cfg)
            true
            (Mat.approx_equal ~tol:0.0 reference (Packed.S.to_mat p))))
    (all_cfgs ())

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

let test_pack_padded_dirty () =
  for_each_size (fun ~nb ~n ->
      let rng = Rng.create ((n * 7) + nb) in
      let a = Mat.random rng n n in
      let p = Packed.D.create ~n:(padded_to ~nb n) ~nb in
      (* a recycled buffer: every element holds garbage before the pack *)
      Bigarray.Array1.fill p.Packed.D.buf Float.nan;
      Packed.D.pack_padded p a;
      let ok = ref true in
      for i = 0 to p.Packed.D.n - 1 do
        for j = 0 to p.Packed.D.n - 1 do
          let expect =
            if i < n && j < n then Mat.get a i j else if i = j then 1.0 else 0.0
          in
          if Int64.bits_of_float (Packed.D.get p i j) <> Int64.bits_of_float expect then
            ok := false
        done
      done;
      Alcotest.(check bool) (Printf.sprintf "pack_padded n=%d nb=%d" n nb) true !ok)

let test_potrs_bitwise () =
  for_each_size (fun ~nb ~n ->
      let rng = Rng.create ((n * 11) + nb) in
      let p = packed_padded ~nb (Mat.random_spd rng n) in
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
        ] );
      ( "float32",
        [
          Alcotest.test_case "potrf accuracy" `Quick test_potrf_f32_accuracy;
          Alcotest.test_case "potrs solve" `Quick test_potrs_f32;
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
