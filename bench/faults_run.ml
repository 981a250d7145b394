(* Fault-injection demo (`bench/main.exe --faults [SEED]`) and the
   resilience benchmark record for `--json` / `--smoke`.

   The record times packed tiled Cholesky at n=432/nb=48 in interleaved
   rounds (medians, so clock drift cancels out of the ratios): plain
   kernels, op-DAG execution, restart-only FT, and full FT with ABFT. The
   in-DAG ABFT overhead is the FT vs restart-only ablation, compared
   against the Abft.overhead_model flop prediction. A seeded corruption
   storm then runs through the runtime harness — every run must detect,
   repair and land bitwise identical to the fault-free factorization. *)

open Xsc_linalg
module PD = Xsc_tile.Packed.D
module Ft = Xsc_core.Ft
module Cholesky = Xsc_core.Cholesky
module Real_exec = Xsc_runtime.Real_exec
module Harness = Xsc_resilience.Harness
module Abft = Xsc_resilience.Abft
module Rng = Xsc_util.Rng
module Clock = Xsc_obs.Clock

let n = 432
let nb = 48

let fixture () =
  let rng = Rng.create 11 in
  let a = Mat.random_spd rng n in
  let p0 = PD.of_mat ~nb a in
  let reference = PD.copy p0 in
  PD.potrf reference;
  (p0, reference)

let buf_equal a b =
  let la = Bigarray.Array1.dim a.PD.buf in
  let rec go i =
    i >= la
    || Int64.bits_of_float (Bigarray.Array1.get a.PD.buf i)
       = Int64.bits_of_float (Bigarray.Array1.get b.PD.buf i)
       && go (i + 1)
  in
  go 0

(* Four variants in interleaved rounds (per-variant medians, so load
   drift cancels out of the ratios): the raw sequential kernel loop, the
   same factorization as an op-DAG through the real executor, the FT
   driver in restart-only mode ([~abft:false] — step-synchronised
   execution, snapshots and rollback, but no checksum row), and the full
   FT driver. The in-DAG ABFT overhead is the FT vs restart-only ratio —
   a single-variable ablation where the two runs differ only by the
   checksum border, its update kernels and per-panel verification, which
   is exactly what Abft.overhead_model budgets. *)
let overhead_quad ~runs p0 =
  let dag = Cholesky.dag_ops ~nt:(p0.PD.nt) ~nb:(p0.PD.nb) in
  let tp = Array.make runs 0.0
  and td = Array.make runs 0.0
  and tr = Array.make runs 0.0
  and tf = Array.make runs 0.0 in
  (let p = PD.copy p0 in
   PD.potrf p);
  (let p = PD.copy p0 in
   ignore (Real_exec.run_sequential ~interp:(Cholesky.packed_interp p) dag));
  ignore (Ft.potrf_ft ~abft:false (PD.copy p0));
  ignore (Ft.potrf_ft (PD.copy p0));
  for r = 0 to runs - 1 do
    let p = PD.copy p0 in
    let t0 = Clock.now_s () in
    PD.potrf p;
    tp.(r) <- Clock.now_s () -. t0;
    let p = PD.copy p0 in
    let interp = Cholesky.packed_interp p in
    let t0 = Clock.now_s () in
    ignore (Real_exec.run_sequential ~interp dag);
    td.(r) <- Clock.now_s () -. t0;
    let q = PD.copy p0 in
    let t0 = Clock.now_s () in
    ignore (Ft.potrf_ft ~abft:false q);
    tr.(r) <- Clock.now_s () -. t0;
    let q = PD.copy p0 in
    let t0 = Clock.now_s () in
    ignore (Ft.potrf_ft q);
    tf.(r) <- Clock.now_s () -. t0
  done;
  ( Xsc_util.Stats.median tp,
    Xsc_util.Stats.median td,
    Xsc_util.Stats.median tr,
    Xsc_util.Stats.median tf )

let storm ~seeds ~p_corrupt (p0, reference) =
  let detected = ref 0 and repaired = ref 0 and replayed = ref 0 in
  let injected = ref 0 and bitwise = ref true in
  List.iter
    (fun seed ->
      let h =
        Harness.create { Harness.default with seed; p_corrupt; magnitude = 1.0 }
      in
      let p = PD.copy p0 in
      let r = Ft.potrf_ft ~harness:h p in
      detected := !detected + r.Ft.detected;
      repaired := !repaired + r.Ft.repaired_tiles;
      replayed := !replayed + r.Ft.replayed_kernels;
      injected := !injected + Harness.corrupted h;
      if not (buf_equal p reference) then bitwise := false)
    seeds;
  (!injected, !detected, !repaired, !replayed, !bitwise)

let record ?(runs = 7) ?(storm_seeds = 8) () =
  let p0, reference = fixture () in
  let plain_t, dag_t, restart_t, ft_t = overhead_quad ~runs p0 in
  let overhead = (ft_t -. restart_t) /. restart_t in
  let model = Abft.overhead_model ~n ~nb in
  let seeds = List.init storm_seeds (fun i -> 100 + i) in
  let injected, detected, repaired, replayed, bitwise =
    storm ~seeds ~p_corrupt:0.12 (p0, reference)
  in
  let module J = Xsc_util.Json in
  J.Obj
    [
      ("n", J.int n);
      ("nb", J.int nb);
      ("plain_potrf_s", J.Num plain_t);
      ("dag_potrf_s", J.Num dag_t);
      ("ft_restart_s", J.Num restart_t);
      ("ft_potrf_s", J.Num ft_t);
      ("abft_overhead", J.Num overhead);
      ("abft_overhead_model", J.Num model);
      ("storm_runs", J.int (List.length seeds));
      ("injected", J.int injected);
      ("detected", J.int detected);
      ("repaired_tiles", J.int repaired);
      ("replayed_kernels", J.int replayed);
      ("bitwise_identical", J.Bool bitwise);
    ]

(* Human-readable storm at one seed: corruption + task-body raises through
   the fault-tolerant driver, then the overhead summary. *)
let run ~seed =
  Printf.printf "fault storm: packed tiled Cholesky n=%d nb=%d, seed %d\n" n nb seed;
  let p0, reference = fixture () in
  let h =
    Harness.create
      { Harness.default with seed; p_raise = 0.05; p_corrupt = 0.10; magnitude = 1.0 }
  in
  let p = PD.copy p0 in
  let r = Ft.potrf_ft ~harness:h p in
  Printf.printf "  injected   : %d task-body raises, %d silent corruptions\n"
    (Harness.raised h) (Harness.corrupted h);
  Printf.printf
    "  recovered  : %d detections, %d tiles repaired, %d kernels replayed, %d restarts\n"
    r.Ft.detected r.Ft.repaired_tiles r.Ft.replayed_kernels r.Ft.restarts;
  Printf.printf "  result bitwise identical to fault-free run: %b\n" (buf_equal p reference);
  let plain_t, dag_t, restart_t, ft_t = overhead_quad ~runs:3 p0 in
  Printf.printf
    "  ABFT overhead: measured %.1f%% over restart-only FT (plain %.4fs, dag %.4fs, \
     restart-only %.4fs, ft %.4fs), flop model %.1f%%\n"
    (100.0 *. ((ft_t -. restart_t) /. restart_t))
    plain_t dag_t restart_t ft_t
    (100.0 *. Abft.overhead_model ~n ~nb)
