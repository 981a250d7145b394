(* Machine-readable benchmark mode: `bench/main.exe --json FILE` emits one
   JSON record with GEMM kernel rates (naive vs blocked vs packed-tile),
   float32-vs-float64 packed kernel rates, a measured real-f32 iterative
   refinement solve, real-domain scheduler results over the packed
   closure-free DAG (dataflow vs fork-join, with steal/park telemetry) and
   a metrics object: per-kernel achieved GFLOP/s from a traced run plus the
   full Xsc_obs.Metrics registry snapshot, and a resilience record (ABFT
   overhead vs model, seeded corruption storm — see Faults_run). This seeds
   the BENCH_*.json perf trajectory: each PR can append a record and diff
   GFLOP/s and speedups against the previous ones.

   `--smoke FILE` is the CI perf-sanity subset: one scheduler record
   (n=432, 2 workers) plus the registry, record-only — the shared CI
   container gives no stable core count, so numbers are archived, not
   gated. *)

open Xsc_linalg
module Tile = Xsc_tile.Tile
module Packed = Xsc_tile.Packed
module Cholesky = Xsc_core.Cholesky
module Ir = Xsc_precision.Ir
module Real_exec = Xsc_runtime.Real_exec
module Pool = Xsc_runtime.Pool
module Trace = Xsc_runtime.Trace
module Rng = Xsc_util.Rng
module Clock = Xsc_obs.Clock
module Gcstat = Xsc_obs.Gcstat
module Json = Xsc_util.Json

let time f reps =
  f ();
  (* warm-up: first call touches cold caches and packing buffers *)
  let t0 = Clock.now_s () in
  for _ = 1 to reps do
    f ()
  done;
  (Clock.now_s () -. t0) /. float_of_int reps

(* Tile size for the packed-layout records: big enough that the contiguous
   inner loops amortise the loop nest, small enough that three tiles sit in
   L2 — and it divides every benchmarked n. *)
let packed_nb = 64

let gemm_record ~n ~reps =
  let rng = Rng.create n in
  let a = Mat.random rng n n and b = Mat.random rng n n in
  let c = Mat.create n n in
  let flops = Blas.gemm_flops n n n in
  let naive = flops /. time (fun () -> Blas.gemm_unblocked ~alpha:1.0 a b ~beta:0.0 c) reps /. 1e9 in
  let blocked = flops /. time (fun () -> Blas.gemm ~alpha:1.0 a b ~beta:0.0 c) reps /. 1e9 in
  (* packed: operands already tile-major (the layout's contract is pack
     once, run many kernels), so the timed region is pure kernel *)
  let pa = Packed.D.of_mat ~nb:packed_nb a and pb = Packed.D.of_mat ~nb:packed_nb b in
  let pc = Packed.D.create ~n ~nb:packed_nb in
  let packed =
    flops /. time (fun () -> Packed.D.gemm ~alpha:1.0 pa pb ~beta:0.0 pc) reps /. 1e9
  in
  Json.Obj
    [
      ("n", Json.int n);
      ("naive_gflops", Json.Num naive);
      ("blocked_gflops", Json.Num blocked);
      ("packed_gflops", Json.Num packed);
      ("speedup", Json.Num (blocked /. naive));
      ("packed_vs_blocked", Json.Num (packed /. blocked));
    ]

(* Float32 vs float64 packed kernel rates: same tile algorithm, half the
   bytes per element (paper rule 4 — flops are free, bandwidth is not) and
   twice the SIMD lanes. POTRF rates time a buffer restore + factor; the
   restore is an O(n²) memcpy against the O(n³/3) factorization. The two
   precisions are timed in interleaved pairs and reported as per-run
   medians, so clock/load drift on a shared machine cancels out of the
   ratio instead of landing on whichever precision ran last. *)
let f32_record ~n ~reps =
  let nb = packed_nb in
  let rng = Rng.create 19 in
  let a = Mat.random_spd rng n in
  let potrf_flops = Cholesky.flops ~nt:(n / nb) ~nb in
  let pd0 = Packed.D.of_mat ~nb a in
  let pd = Packed.D.copy pd0 in
  let ps0 = Packed.S.of_mat ~nb a in
  let ps = Packed.S.create ~n ~nb in
  let run_d () =
    Bigarray.Array1.blit pd0.Packed.D.buf pd.Packed.D.buf;
    Packed.D.potrf pd
  in
  let run_s () =
    Bigarray.Array1.blit ps0.Packed.S.buf ps.Packed.S.buf;
    Packed.S.potrf ps
  in
  run_d ();
  run_s ();
  let runs = max 15 reps in
  let td = Array.make runs 0.0 and ts = Array.make runs 0.0 in
  for r = 0 to runs - 1 do
    let t0 = Clock.now_s () in
    run_d ();
    td.(r) <- Clock.now_s () -. t0;
    let t0 = Clock.now_s () in
    run_s ();
    ts.(r) <- Clock.now_s () -. t0
  done;
  let f64 = potrf_flops /. Xsc_util.Stats.median td /. 1e9 in
  let f32 = potrf_flops /. Xsc_util.Stats.median ts /. 1e9 in
  (* single-tile GEMM rates at the same nb, NT shape (the Cholesky update) *)
  let gnb = 128 in
  let grng = Rng.create 23 in
  let ga = Mat.random grng gnb gnb and gb = Mat.random grng gnb gnb in
  let gflops = Blas.gemm_flops gnb gnb gnb in
  let da = Packed.D.of_mat ~nb:gnb ga and db = Packed.D.of_mat ~nb:gnb gb in
  let dc = Packed.D.create ~n:gnb ~nb:gnb in
  let g64 =
    gflops
    /. time (fun () -> Pblas.D.gemm_nt ~alpha:1.0 da.Packed.D.buf 0 db.Packed.D.buf 0 dc.Packed.D.buf 0 ~nb:gnb) (8 * reps)
    /. 1e9
  in
  let sa = Packed.S.of_mat ~nb:gnb ga and sb = Packed.S.of_mat ~nb:gnb gb in
  let sc = Packed.S.create ~n:gnb ~nb:gnb in
  let g32 =
    gflops
    /. time (fun () -> Pblas.S.gemm_nt ~alpha:1.0 sa.Packed.S.buf 0 sb.Packed.S.buf 0 sc.Packed.S.buf 0 ~nb:gnb) (8 * reps)
    /. 1e9
  in
  Json.Obj
    [
      ("n", Json.int n);
      ("nb", Json.int nb);
      ("potrf_f64_gflops", Json.Num f64);
      ("potrf_f32_gflops", Json.Num f32);
      ("potrf_f32_over_f64", Json.Num (f32 /. f64));
      ("gemm_nb", Json.int gnb);
      ("gemm_f64_gflops", Json.Num g64);
      ("gemm_f32_gflops", Json.Num g32);
      ("gemm_f32_over_f64", Json.Num (g32 /. g64));
    ]

(* Measured mixed-precision solve through the real float32 factorization:
   the accuracy story (converges to double) next to the speed story (the
   f32 rates above). *)
let ir_record ~n =
  let rng = Rng.create 29 in
  let a = Mat.random_spd rng n in
  let x_true = Vec.random rng n in
  let b = Mat.mul_vec a x_true in
  let t0 = Clock.now_s () in
  let r = Ir.chol_ir32 ~nb:packed_nb a b in
  let elapsed = Clock.now_s () -. t0 in
  let err = Vec.dist_inf r.Ir.x x_true /. Vec.norm_inf x_true in
  Json.Obj
    [
      ("n", Json.int n);
      ("iterations", Json.int r.Ir.iterations);
      ("converged", Json.Bool r.Ir.converged);
      ("backward_error", Json.Num r.Ir.backward_error);
      ("forward_error", Json.Num err);
      ("solve_s", Json.Num elapsed);
    ]

(* Scheduler comparison over the packed closure-free DAG (op-encoded tasks,
   Pblas kernels) plus one extra traced dataflow run (outside the timed
   medians, so the trace cannot perturb them) for the per-kernel achieved
   rates. The DAG shape is storage-independent, so it is built once and
   reused across runs and executors. *)
let sched_record ~nt ~nb ~workers =
  let n = nt * nb in
  let rng = Rng.create 7 in
  let a = Mat.random_spd rng n in
  let dag = Cholesky.dag_ops ~nt ~nb in
  let run exec =
    let p = Packed.D.of_mat ~nb a in
    let interp = Cholesky.packed_interp p in
    match exec with
    | `Seq -> Real_exec.run_sequential ~interp dag
    | `Forkjoin -> Real_exec.run_forkjoin ~interp ~workers dag
    | `Dataflow -> Pool.run_once ~interp ~workers dag
  in
  let median exec =
    let rs = Array.init 5 (fun _ -> run exec) in
    let xs = Array.map (fun s -> s.Real_exec.elapsed) rs in
    (Xsc_util.Stats.median xs, rs.(0))
  in
  let seq_t, _ = median `Seq in
  let fj_t, _ = median `Forkjoin in
  let df_t, df = median `Dataflow in
  let attempts_per_steal =
    if df.Real_exec.steals = 0 then 0.0
    else float_of_int df.Real_exec.steal_attempts /. float_of_int df.Real_exec.steals
  in
  let sched =
    Json.Obj
      [
        ("n", Json.int n);
        ("nb", Json.int nb);
        ("workers", Json.int workers);
        ("sequential_s", Json.Num seq_t);
        ("forkjoin_s", Json.Num fj_t);
        ("dataflow_s", Json.Num df_t);
        ("forkjoin_speedup", Json.Num (seq_t /. fj_t));
        ("dataflow_speedup", Json.Num (seq_t /. df_t));
        ("dataflow_over_forkjoin", Json.Num (fj_t /. df_t));
        ("seq_gflops", Json.Num (Cholesky.flops ~nt ~nb /. seq_t /. 1e9));
        ("steals", Json.int df.Real_exec.steals);
        ("steal_attempts", Json.int df.Real_exec.steal_attempts);
        ("attempts_per_steal", Json.Num attempts_per_steal);
        ("parks", Json.int df.Real_exec.parks);
        ("park_time_s", Json.Num df.Real_exec.park_time);
      ]
  in
  let per_kernel =
    let p = Packed.D.of_mat ~nb a in
    let traced = Pool.run_once ~interp:(Cholesky.packed_interp p) ~trace:true ~workers dag in
    match traced.Real_exec.trace with
    | None -> []
    | Some tr ->
      let flops_of id = dag.Xsc_runtime.Dag.tasks.(id).Xsc_runtime.Task.flops in
      List.map
        (fun (family, busy, count, rate) ->
          Json.Obj
            [
              ("kernel", Json.Str family);
              ("busy_s", Json.Num busy);
              ("tasks", Json.int count);
              ("gflops", Json.Num (rate /. 1e9));
            ])
        (Trace.by_kernel_rates tr ~flops_of)
  in
  (sched, per_kernel)

(* Sparse kernel roofline: SpMV and SymGS rates on the 3-D stencil
   operators, with flop/byte totals read back from the [blas.*] tallies
   the Csr kernels publish — the same accounting the dense kernels use —
   so the reported intensity is the kernels' own, then judged against
   the workstation roof. Both land near 0.2 flop/byte, an order of
   magnitude below the ridge point: the bandwidth-bound regime whose
   serving-side consequences the mixed phases of [--serve] measure. *)
let sparse_record ~n ~reps =
  let module Csr = Xsc_sparse.Csr in
  let module Stencil = Xsc_sparse.Stencil in
  let module Roofline = Xsc_hpcbench.Roofline in
  let module Metrics = Xsc_obs.Metrics in
  let node = Xsc_simmachine.(Presets.workstation.Machine.node) in
  let rows = n * n * n in
  let rng = Rng.create 41 in
  let x = Vec.random rng rows in
  let y = Vec.create rows in
  let measure name f =
    let counter key snap =
      match List.assoc_opt key snap with
      | Some (Metrics.Counter c) -> float_of_int c
      | _ -> 0.0
    in
    let before = Metrics.snapshot () in
    let t = time f reps in
    let d = Metrics.delta ~before ~after:(Metrics.snapshot ()) in
    let calls = counter ("blas." ^ name ^ ".calls") d in
    let flops = counter ("blas." ^ name ^ ".flops") d in
    let bytes = counter ("blas." ^ name ^ ".bytes") d in
    (* [time] runs warm-up + reps; per-call figures come from the tally
       itself, so the arithmetic stays honest if reps change *)
    let per_call_flops = flops /. calls in
    let intensity = flops /. bytes in
    let measured = per_call_flops /. t in
    let a = Roofline.achieved_point node ~kernel:name ~intensity ~measured in
    Json.Obj
      [
        ("kernel", Json.Str name);
        ("n", Json.int n);
        ("rows", Json.int rows);
        ("intensity", Json.Num intensity);
        ("gflops", Json.Num (measured /. 1e9));
        ("gbytes_per_s", Json.Num (measured /. intensity /. 1e9));
        ("roof_gflops", Json.Num (a.Roofline.point.Roofline.attainable /. 1e9));
        ("roof_fraction", Json.Num a.Roofline.roof_fraction);
      ]
  in
  let a7 = Stencil.poisson_3d n in
  let a27 = Stencil.hpcg_27pt n in
  let b = Vec.random rng rows in
  let spmv = measure "spmv" (fun () -> Csr.mul_vec_into a27 x y) in
  let symgs = measure "symgs" (fun () -> Csr.symgs_sweep a27 ~b ~x:y) in
  (* the 7-point operator under the same kernel name shows intensity is a
     property of the operator (nnz/row), not the kernel *)
  let spmv7 = measure "spmv" (fun () -> Csr.mul_vec_into a7 x y) in
  Json.List [ spmv7; spmv; symgs ]

(* Whole-run GC figures: quick_stat deltas around the record's phases.
   The per-phase gauges ([gc.<phase>.*], published by Gcstat.phase) land
   in the registry snapshot that already ships with the record. *)
let gc_json (d : Gcstat.snap) =
  Json.Obj
    [
      ("minor_words", Json.Num d.Gcstat.minor_words);
      ("promoted_words", Json.Num d.Gcstat.promoted_words);
      ("major_words", Json.Num d.Gcstat.major_words);
      ("minor_collections", Json.int d.Gcstat.minor_collections);
      ("major_collections", Json.int d.Gcstat.major_collections);
      ("compactions", Json.int d.Gcstat.compactions);
      ("heap_words", Json.int d.Gcstat.heap_words);
    ]

let gate_fail what =
  Printf.eprintf "%s FAILED\n" what;
  exit 1

(* The one writer of bench record files ([--json], [--smoke], [--fleet], [--serve]). *)
let write_json ~file j =
  Out_channel.with_open_text file (fun oc -> output_string oc (Json.to_string j ^ "\n"))

let run ~file =
  let gc0 = Gcstat.snap () in
  let gemm_sizes = [ (128, 20); (256, 5); (512, 3) ] in
  let gemms =
    Gcstat.phase "gemm" (fun () -> List.map (fun (n, reps) -> gemm_record ~n ~reps) gemm_sizes)
  in
  let f32 = Gcstat.phase "f32" (fun () -> f32_record ~n:768 ~reps:2) in
  let ir = Gcstat.phase "ir" (fun () -> ir_record ~n:256) in
  let workers = max 2 (Real_exec.default_workers ()) in
  let scheds, per_kernel =
    Gcstat.phase "sched" (fun () ->
        let s1, pk = sched_record ~nt:6 ~nb:72 ~workers in
        let s2, _ = sched_record ~nt:8 ~nb:96 ~workers in
        ([ s1; s2 ], pk))
  in
  let sparse = Gcstat.phase "sparse" (fun () -> sparse_record ~n:32 ~reps:10) in
  let resilience = Gcstat.phase "resilience" (fun () -> Faults_run.record ()) in
  let autotune, autotune_ok =
    Gcstat.phase "autotune" (fun () -> Autotune_run.record ~quick:false ())
  in
  let gc = gc_json (Gcstat.delta ~before:gc0 ~after:(Gcstat.snap ())) in
  let record =
    Json.Obj
      [
        ("gemm", Json.List gemms);
        ("f32", f32);
        ("ir", ir);
        ("sparse", sparse);
        ("autotune", autotune);
        ("resilience", resilience);
        ("gc", gc);
        ("sched", Json.List scheds);
        ( "metrics",
          Json.Obj
            [ ("per_kernel", Json.List per_kernel); ("registry", Xsc_obs.Metrics.to_json ()) ] );
      ]
  in
  write_json ~file record;
  Printf.printf "wrote %s\n%s\n" file (Json.to_string record);
  (* hard-invariant gate: the autotune roofline — a tuned kernel falling
     below its own freshly measured default is a dispatch bug, not a perf
     datum *)
  if not autotune_ok then gate_fail "bench: autotune roofline gate"

(* CI perf-sanity subset: the n=432 Cholesky on 2 workers plus a reduced
   resilience record (fewer timing pairs and storm seeds), record-only. *)
let smoke ~file =
  let gc0 = Gcstat.snap () in
  let sched, _ = Gcstat.phase "sched" (fun () -> sched_record ~nt:6 ~nb:72 ~workers:2) in
  let sparse = Gcstat.phase "sparse" (fun () -> sparse_record ~n:20 ~reps:5) in
  let resilience =
    Gcstat.phase "resilience" (fun () -> Faults_run.record ~runs:3 ~storm_seeds:4 ())
  in
  let autotune, autotune_ok =
    Gcstat.phase "autotune" (fun () -> Autotune_run.record ~quick:true ())
  in
  let gc = gc_json (Gcstat.delta ~before:gc0 ~after:(Gcstat.snap ())) in
  let record =
    Json.Obj
      [
        ("smoke", Json.Bool true);
        ("sched", sched);
        ("sparse", sparse);
        ("autotune", autotune);
        ("resilience", resilience);
        ("gc", gc);
        ("registry", Xsc_obs.Metrics.to_json ());
      ]
  in
  write_json ~file record;
  Printf.printf "wrote %s\n%s\n" file (Json.to_string record);
  (* the autotune gates are hard invariants, not perf — gate on them even
     in the record-only smoke: XSC_TUNE_CACHE (when set) must load, and
     tuned kernels must not regress below their freshly measured defaults *)
  if not autotune_ok then gate_fail "smoke: autotune cache/roofline gate"
