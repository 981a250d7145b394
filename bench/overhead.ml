(* `bench/main.exe -- --overhead [PCT]`: measure what tracing costs on the
   scheduler smoke (6x6 tiles of 72, work-stealing pool). Runs the same
   Cholesky with tracing off and on, median of 7 each, and prints the
   relative difference; with a PCT argument, exits 1 when the overhead
   exceeds it — the CI regression gate for the "tracing must stay cheap"
   budget.

   `--serve-overhead [PCT]` is the same discipline for causal spans on the
   serving path: a saturated closed-loop run with spans off vs on,
   interleaved A/B pairs so drift hits both arms equally, gated on median
   goodput loss. *)

open Xsc_linalg
module Tile = Xsc_tile.Tile
module Cholesky = Xsc_core.Cholesky
module Real_exec = Xsc_runtime.Real_exec
module Pool = Xsc_runtime.Pool
module Server = Xsc_serve.Server
module Loadgen = Xsc_serve.Loadgen
module Metrics = Xsc_obs.Metrics

let median_elapsed ~trace ~workers ~nt ~nb ~reps =
  let n = nt * nb in
  let rng = Xsc_util.Rng.create 7 in
  let a = Mat.random_spd rng n in
  let once () =
    let interp = Cholesky.tile_interp (Tile.of_mat ~nb a) in
    (Pool.run_once ~interp ~trace ~workers (Cholesky.dag_ops ~nt ~nb)).Real_exec.elapsed
  in
  ignore (once ());
  (* warm-up *)
  Xsc_util.Stats.median (Array.init reps (fun _ -> once ()))

let run ~threshold =
  let workers = max 2 (Real_exec.default_workers ()) in
  let nt = 6 and nb = 72 and reps = 7 in
  let off = median_elapsed ~trace:false ~workers ~nt ~nb ~reps in
  let on = median_elapsed ~trace:true ~workers ~nt ~nb ~reps in
  let pct = (on -. off) /. off *. 100.0 in
  Printf.printf "sched smoke (%d workers, median of %d):\n" workers reps;
  Printf.printf "  tracing off  %.6f s\n" off;
  Printf.printf "  tracing on   %.6f s\n" on;
  Printf.printf "  overhead     %+.2f%%\n" pct;
  match threshold with
  | None -> ()
  | Some t ->
    if pct > t then begin
      Printf.eprintf "tracing overhead %.2f%% exceeds the %.2f%% budget\n" pct t;
      exit 1
    end

(* ---- spans-on serving overhead ---- *)

(* One saturated closed-loop arm: 16 outstanding against the default
   two-lane pool, payloads generated before the clock starts, so goodput
   is service-rate-bound and any span bookkeeping on the hot path shows up
   directly. *)
let serve_goodput ~spans ~count =
  let srv = Server.start { Server.default_config with capacity = 32; spans } in
  let load =
    { Loadgen.default with seed = 77; rate_hz = 1.0e6; count; n = 32; deadline_s = 5.0 }
  in
  let r =
    match Loadgen.run srv [ { Loadgen.load; loop = Loadgen.Closed 16 } ] with
    | [ res ] -> res.Loadgen.report
    | _ -> assert false
  in
  Server.stop srv;
  if r.Loadgen.failed > 0 || r.Loadgen.rejected > 0 then
    failwith "serve overhead: unexpected failures/rejects in A/B arm";
  r.Loadgen.goodput

let run_serve ~threshold =
  let pairs = 5 and count = 256 in
  ignore (serve_goodput ~spans:false ~count);
  (* warm-up *)
  let off = Array.make pairs 0.0 and on = Array.make pairs 0.0 in
  let before = Metrics.snapshot () in
  (* Interleaved A/B: each pair runs both arms back to back, so thermal or
     scheduling drift across the measurement hits both arms equally. *)
  for i = 0 to pairs - 1 do
    off.(i) <- serve_goodput ~spans:false ~count;
    on.(i) <- serve_goodput ~spans:true ~count
  done;
  let d = Metrics.delta ~before ~after:(Metrics.snapshot ()) in
  let dropped =
    match List.assoc_opt "obs.span.dropped" d with
    | Some (Metrics.Counter n) -> n
    | _ -> 0
  in
  let m_off = Xsc_util.Stats.median off and m_on = Xsc_util.Stats.median on in
  let loss = (m_off -. m_on) /. m_off *. 100.0 in
  Printf.printf "serve smoke (closed loop, 16 outstanding, %d pairs of %d):\n"
    pairs count;
  Printf.printf "  spans off    %.1f req/s\n" m_off;
  Printf.printf "  spans on     %.1f req/s\n" m_on;
  Printf.printf "  goodput loss %+.2f%%  (span records dropped: %d)\n" loss dropped;
  match threshold with
  | None -> ()
  | Some t ->
    if loss > t then begin
      Printf.eprintf "spans-on goodput loss %.2f%% exceeds the %.2f%% budget\n" loss t;
      exit 1
    end
