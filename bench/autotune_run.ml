(* Autotune record for `bench --json` / `--smoke`: per-kernel default vs
   tuned GFLOP/s with each rate's achieved-vs-roof ratio on the
   workstation preset — the roofline gate of BENCH_0006.

   The tuned configs come from the persisted cache when XSC_TUNE_CACHE
   points at one (CI: the file `xsc tune --quick` just wrote), otherwise
   from an in-process search. Either way both sides are RE-measured here,
   back to back on this process's data — a stale cache cannot smuggle in
   rates measured under different conditions.

   Self-checks (hard gates, not perf archaeology): the cache named by
   XSC_TUNE_CACHE must load, and no tuned kernel may fall below its own
   freshly measured default beyond timing noise. A failed gate fails the
   smoke run. *)

module P = Xsc_linalg.Pblas
module Kconfig = Xsc_linalg.Kconfig
module KT = Xsc_autotune.Kernel_tune
module Json = Xsc_util.Json
module Roofline = Xsc_hpcbench.Roofline
module Node = Xsc_simmachine.Node

(* Same traffic model as Pblas's tally: gemm touches 3 tiles + c reread,
   syrk 1 tile + triangular c read/write, trsm a triangle + b twice. *)
let intensity kernel prec nb =
  let w = match prec with P.F64 -> 8.0 | P.F32 -> 4.0 in
  let f = float_of_int nb in
  let flops, words =
    match kernel with
    | P.Gemm_nn | P.Gemm_nt -> (P.gemm_flops nb, 4.0 *. f *. f)
    | P.Syrk_ln -> (P.syrk_flops nb, (f *. f) +. (f *. (f +. 1.0)))
    | P.Trsm_rlt -> (P.trsm_flops nb, (f *. (f +. 1.0) /. 2.0) +. (2.0 *. f *. f))
  in
  flops /. (w *. words)

let node_precision = function P.F64 -> Node.FP64 | P.F32 -> Node.FP32

(* Timing noise floor for the no-regression gate: the tuner's head-to-head
   already guarantees tuned <= default on its own measurements; this
   re-measurement only has to catch real inversions, not jitter. *)
let noise_floor = 0.85

let record ?(quick = true) () =
  let node = Xsc_simmachine.(Presets.workstation.Machine.node) in
  let env_path = Sys.getenv_opt "XSC_TUNE_CACHE" in
  let source, load_error, cache =
    match env_path with
    | Some path -> (
        match Kconfig.load ~path () with
        | Ok t ->
            Kconfig.apply t;
            ("cache", None, t)
        | Error e ->
            (* the gate below fails; still emit a record with in-process
               results so the artifact shows what the host can do *)
            ("in-process", Some (Kconfig.describe_error e), fst (KT.tune ~quick ())))
    | None -> ("in-process", None, fst (KT.tune ~quick ()))
  in
  let nb = cache.Kconfig.nb in
  let kernels =
    List.map
      (fun e ->
        let prec = e.Kconfig.prec and kernel = e.Kconfig.kernel in
        let default_gf, tuned_gf =
          KT.measure_pair ~nb prec kernel P.default_cfg e.Kconfig.cfg
        in
        (* a cache entry that kept the default measured the same kernel on
           both sides: same config, same rate (no noise-born "speedup") *)
        let default_gf, tuned_gf =
          if e.Kconfig.cfg = P.default_cfg then
            let r = max default_gf tuned_gf in
            (r, r)
          else (default_gf, tuned_gf)
        in
        let roof g =
          (Roofline.achieved_point ~precision:(node_precision prec) node
             ~kernel:(P.kernel_name kernel)
             ~intensity:(intensity kernel prec nb) ~measured:(g *. 1e9))
            .Roofline.roof_fraction
        in
        let ok = tuned_gf >= noise_floor *. default_gf in
        if not ok then
          Printf.eprintf "autotune: tuned %s %s regressed below its default\n"
            (P.prec_name prec) (P.kernel_name kernel);
        let measured = { e with Kconfig.default_gflops = default_gf; tuned_gflops = tuned_gf } in
        let json =
          Json.Obj
            (KT.entry_fields measured
            @ [
                ("default_roof_fraction", Json.Num (roof default_gf));
                ("tuned_roof_fraction", Json.Num (roof tuned_gf));
                ("no_regression", Json.Bool ok);
              ])
        in
        (json, ok))
      cache.Kconfig.entries
  in
  let cache_ok = load_error = None in
  let no_regression = List.for_all snd kernels in
  let ok = cache_ok && no_regression in
  if not cache_ok then
    Printf.eprintf "autotune: XSC_TUNE_CACHE did not load: %s\n"
      (Option.value ~default:"?" load_error);
  let json =
    Json.Obj
      [
        ("source", Json.Str source);
        ("cache_loaded", Json.Bool cache_ok);
        ("nb", Json.int nb);
        ("search_seconds", Json.Num cache.Kconfig.search_seconds);
        ("host_key", Json.Str cache.Kconfig.host_key);
        ("kernels", Json.List (List.map fst kernels));
        ("no_regression", Json.Bool no_regression);
        ("ok", Json.Bool ok);
      ]
  in
  (json, ok)
