(* Seeded load generation: the arrival schedule and every problem instance
   are pure functions of the seed (Xsc_util.Rng), so a load run is exactly
   repeatable — the property the fault-storm acceptance test leans on
   (same seed => same request ids => same injected set).

   One client loop ([run]) drives every traffic shape as a list of
   streams. Open: requests arrive at Poisson times regardless of
   completions — the honest overload model (offered load does not politely
   slow down when the server falls behind), which is what makes reject
   rates meaningful. Closed: a fixed number of outstanding requests, the
   classical concurrency-limited client, or background load beside open
   streams.

   The report's latency quantiles are exact sample percentiles over the
   completed requests (Stats.percentile), not the log2-bucket estimates the
   metrics registry exports — the registry answers "is the SLO burning"
   cheaply and forever; the report answers "what was the p999 of this run"
   precisely. *)

open Xsc_linalg
module Rng = Xsc_util.Rng
module Stats = Xsc_util.Stats
module Clock = Xsc_obs.Clock

type kind =
  | Spd
  | General
  | Product
  | Cg
  | Mg

type config = {
  seed : int;
  rate_hz : float;
  count : int;
  n : int;
  kinds : kind array;
  deadline_s : float;
}

let default =
  {
    seed = 42;
    rate_hz = 500.0;
    count = 100;
    n = 48;
    kinds = [| Spd |];
    deadline_s = 0.05;
  }

type arrival = { at_s : float; kind : kind; problem_seed : int }

let schedule cfg =
  if cfg.count <= 0 then invalid_arg "Loadgen.schedule: count must be positive";
  if cfg.rate_hz <= 0.0 then invalid_arg "Loadgen.schedule: rate_hz must be positive";
  if Array.length cfg.kinds = 0 then invalid_arg "Loadgen.schedule: kinds must be non-empty";
  let rng = Rng.create cfg.seed in
  let t = ref 0.0 in
  Array.init cfg.count (fun _ ->
      t := !t +. Rng.exponential rng cfg.rate_hz;
      let kind = cfg.kinds.(Rng.int rng (Array.length cfg.kinds)) in
      { at_s = !t; kind; problem_seed = 1 + Rng.int rng 0x3FFFFFFF })

(* Sparse instances: [n] is reinterpreted as the GRID EDGE (n^3 unknowns),
   not the matrix order — a grid-16 CG solve is a 4096-row SpMV stream, the
   bandwidth-bound analogue of an n=48 dense solve's compute-bound kernel.
   Tolerances/budgets are fixed here so a generated instance always
   converges on a fault-free server (the bench gates rely on sparse
   failures meaning injected faults or deliberate cap-outs, not flaky
   generation). *)
let sparse_tol = 1e-8
let cg_max_iter n = 30 * n
let mg_max_cycles = 100
let mg_levels = 4

let payload_of cfg a =
  let rng = Rng.create a.problem_seed in
  match a.kind with
  | Spd -> Request.Spd_solve (Mat.random_spd rng cfg.n, Vec.random rng cfg.n)
  | General -> Request.Lu_solve (Mat.random_diag_dominant rng cfg.n, Vec.random rng cfg.n)
  | Product -> Request.Gemm (Mat.random rng cfg.n cfg.n, Mat.random rng cfg.n cfg.n)
  | Cg ->
    let rows = cfg.n * cfg.n * cfg.n in
    Request.Cg_solve
      {
        a = Xsc_sparse.Stencil.poisson_3d cfg.n;
        b = Vec.random rng rows;
        tol = sparse_tol;
        max_iter = cg_max_iter cfg.n;
      }
  | Mg ->
    let rows = cfg.n * cfg.n * cfg.n in
    Request.Mg_solve
      {
        grid = cfg.n;
        levels = mg_levels;
        b = Vec.random rng rows;
        tol = sparse_tol;
        max_cycles = mg_max_cycles;
      }

(* The oracle: the same kernels the server runs, called directly — the
   server's answer for a fault-free request must be bitwise identical. *)
let reference cfg a =
  match payload_of cfg a with
  | Request.Spd_solve (m, b) -> Request.Vector (Lapack.chol_solve m b)
  | Request.Lu_solve (m, b) -> Request.Vector (Lapack.lu_solve m b)
  | Request.Gemm (m, b) ->
    let ra, _ = Mat.dims m and _, cb = Mat.dims b in
    let c = Mat.create ra cb in
    Blas.gemm ~alpha:1.0 m b ~beta:0.0 c;
    Request.Matrix c
  | (Request.Cg_solve _ | Request.Mg_solve _) as p ->
    (* Sparse oracle: the identical sequential chain the router runs — for
       sparse payloads the Slot path IS [Route.direct], so this oracle and
       [reference_routed] coincide. Raises [Route.Non_convergence] when the
       instance cannot meet its tolerance; callers compare survivors only. *)
    Route.direct p

(* Oracle for the shared-pool dispatch path: the identical Route plan the
   server submits, executed sequentially. The packed kernels are bitwise
   schedule-independent, so a fault-free pool-served answer must equal
   this bit for bit — under any interleaving, steal pattern or storm. *)
let reference_routed ?nb cfg a = Route.direct ?nb (payload_of cfg a)

let bits_equal x y =
  Array.length x = Array.length y
  && (let ok = ref true in
      Array.iteri
        (fun i v -> if Int64.bits_of_float v <> Int64.bits_of_float y.(i) then ok := false)
        x;
      !ok)

let solutions_bitwise_equal a b =
  match (a, b) with
  | Request.Vector x, Request.Vector y -> bits_equal x y
  | Request.Matrix x, Request.Matrix y ->
    Mat.dims x = Mat.dims y
    && (let rx, cx = Mat.dims x in
        let ok = ref true in
        for i = 0 to rx - 1 do
          for j = 0 to cx - 1 do
            if Int64.bits_of_float (Mat.get x i j) <> Int64.bits_of_float (Mat.get y i j)
            then ok := false
          done
        done;
        !ok)
  | _ -> false

type report = {
  offered : int;
  admitted : int;
  rejected : int;
  completed : int;
  failed : int;
  retried : int;
  wall_s : float;
  offered_rate : float;
  throughput : float;
  goodput : float;
  reject_rate : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  mean_batch : float;
}

let percentile_ms samples p =
  if Array.length samples = 0 then 0.0 else Stats.percentile samples p *. 1e3

let report_of ~offered ~rejected ~wall_s ~mean_batch (completions : Request.completion list) =
  let completed = List.length (List.filter (fun c -> Result.is_ok c.Request.outcome) completions) in
  let failed = List.length completions - completed in
  let retried = List.fold_left (fun acc c -> acc + c.Request.retries) 0 completions in
  let on_time =
    List.length
      (List.filter
         (fun c -> Result.is_ok c.Request.outcome && c.Request.met_deadline)
         completions)
  in
  let latencies =
    completions |> List.map (fun c -> c.Request.total_s) |> Array.of_list
  in
  Array.sort compare latencies;
  let per_s n = if wall_s > 0.0 then float_of_int n /. wall_s else 0.0 in
  {
    offered;
    admitted = List.length completions;
    rejected;
    completed;
    failed;
    retried;
    wall_s;
    offered_rate = per_s offered;
    throughput = per_s completed;
    goodput = per_s on_time;
    reject_rate = (if offered > 0 then float_of_int rejected /. float_of_int offered else 0.0);
    p50_ms = percentile_ms latencies 50.0;
    p99_ms = percentile_ms latencies 99.0;
    p999_ms = percentile_ms latencies 99.9;
    mean_batch;
  }

(* ---- one client loop for every traffic shape ---- *)

type loop = Open | Closed of int
type stream = { load : config; loop : loop }
type result = { report : report; pairs : (arrival * Request.completion) list }

(* A stream's client-side state. [live] holds the outstanding tickets,
   newest first, keyed by submission number; [resolved] collects their
   completions in any order (sorted back into submission order at the
   end). Submission [i] offers instance [i mod count]: an open stream
   offers each instance once, a closed stream beside open ones cycles
   them. *)
type lane = {
  stream : stream;
  arrivals : arrival array;
  payloads : Request.payload array;
  mutable sent : int;
  mutable rejected : int;
  mutable live : (int * Server.ticket) list;
  mutable resolved : (int * Request.completion) list;
}

(* Client sleep granularity while waiting for the next open arrival
   beside closed streams: they are refilled at least this often. *)
let client_poll_s = 0.0005

let lane_of stream =
  (match stream.loop with
  | Closed k when k <= 0 -> invalid_arg "Loadgen.run: Closed window must be positive"
  | _ -> ());
  let arrivals = schedule stream.load in
  { stream; arrivals; payloads = Array.map (payload_of stream.load) arrivals; sent = 0;
    rejected = 0; live = []; resolved = [] }

let submit srv l =
  let i = l.sent in
  l.sent <- i + 1;
  match
    Server.submit srv ~deadline_s:l.stream.load.deadline_s
      l.payloads.(i mod Array.length l.payloads)
  with
  | Ok tk -> l.live <- (i, tk) :: l.live
  | Error _ -> l.rejected <- l.rejected + 1

(* Collect every resolved ticket of a closed stream, then top its window
   back up while [more] allows another submission. *)
let refill srv ~more l =
  match l.stream.loop with
  | Open -> ()
  | Closed window ->
    l.live <-
      List.filter
        (fun (i, tk) ->
          match Server.poll srv tk with
          | Some c ->
            l.resolved <- (i, c) :: l.resolved;
            false
          | None -> true)
        l.live;
    while List.length l.live < window && more l do
      submit srv l
    done

let run srv streams =
  let lanes = Array.of_list (List.map lane_of streams) in
  let closed = List.filter (fun l -> l.stream.loop <> Open) (Array.to_list lanes) in
  (* every open arrival of every stream, merged in time order *)
  let opens =
    Array.to_list lanes
    |> List.concat_map (fun l ->
           if l.stream.loop = Open then Array.to_list (Array.map (fun a -> (a.at_s, l)) l.arrivals)
           else [])
    |> List.stable_sort (fun (x, _) (y, _) -> compare x y)
  in
  let batches0 = (Server.counters srv).Server.batches in
  let t0 = Clock.now_s () in
  if opens = [] then begin
    (* Closed streams alone: each offers exactly [count] requests. When no
       window can grow, block on the oldest outstanding ticket. *)
    let more l = l.sent < l.stream.load.count in
    let rec go () =
      List.iter (refill srv ~more) closed;
      match List.find_opt (fun l -> l.live <> []) closed with
      | None -> ()
      | Some l ->
        let i, tk = List.nth l.live (List.length l.live - 1) in
        l.resolved <- (i, Server.await srv tk) :: l.resolved;
        l.live <- List.filter (fun (j, _) -> j <> i) l.live;
        go ()
    in
    go ()
  end
  else begin
    (* Open arrivals at their scheduled times; closed streams cycle their
       instances in the gaps until the last open arrival is offered. *)
    let nap = if closed = [] then Float.infinity else client_poll_s in
    List.iter
      (fun (at_s, l) ->
        let rec wait () =
          List.iter (refill srv ~more:(fun _ -> true)) closed;
          let now = Clock.now_s () in
          if now < t0 +. at_s then begin
            Unix.sleepf (Float.min nap (t0 +. at_s -. now));
            wait ()
          end
        in
        wait ();
        submit srv l)
      opens
  end;
  Array.iter
    (fun l ->
      List.iter (fun (i, tk) -> l.resolved <- (i, Server.await srv tk) :: l.resolved) l.live;
      l.live <- [])
    lanes;
  let wall_s = Clock.now_s () -. t0 in
  let batches = (Server.counters srv).Server.batches - batches0 in
  let admitted = Array.fold_left (fun acc l -> acc + List.length l.resolved) 0 lanes in
  let mean_batch = if batches > 0 then float_of_int admitted /. float_of_int batches else 0.0 in
  Array.to_list lanes
  |> List.map (fun l ->
         let pairs =
           List.sort (fun (i, _) (j, _) -> compare i j) l.resolved
           |> List.map (fun (i, c) -> (l.arrivals.(i mod Array.length l.arrivals), c))
         in
         {
           report =
             report_of ~offered:l.sent ~rejected:l.rejected ~wall_s ~mean_batch
               (List.map snd pairs);
           pairs;
         })

let json_of_report r =
  let module J = Xsc_util.Json in
  J.Obj
    [
      ("offered", J.int r.offered);
      ("admitted", J.int r.admitted);
      ("rejected", J.int r.rejected);
      ("completed", J.int r.completed);
      ("failed", J.int r.failed);
      ("retried", J.int r.retried);
      ("wall_s", J.Num r.wall_s);
      ("offered_rate_hz", J.Num r.offered_rate);
      ("throughput_hz", J.Num r.throughput);
      ("goodput_hz", J.Num r.goodput);
      ("reject_rate", J.Num r.reject_rate);
      ("p50_ms", J.Num r.p50_ms);
      ("p99_ms", J.Num r.p99_ms);
      ("p999_ms", J.Num r.p999_ms);
      ("mean_batch", J.Num r.mean_batch);
    ]

let report_human r =
  Printf.sprintf
    "offered %d (%.0f/s)  admitted %d  rejected %d (%.1f%%)\n\
     completed %d  failed %d  retried %d\n\
     throughput %.0f/s  goodput %.0f/s  latency p50 %.2f ms  p99 %.2f ms  p999 %.2f ms\n\
     mean batch %.2f  wall %.3f s"
    r.offered r.offered_rate r.admitted r.rejected (100.0 *. r.reject_rate) r.completed
    r.failed r.retried r.throughput r.goodput r.p50_ms r.p99_ms r.p999_ms r.mean_batch
    r.wall_s
