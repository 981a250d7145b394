(* One workload run: the untraced end-to-end run (--trace 0) or the traced
   per-layer run (--trace 1), and the output both share.

   Output: one "workload metric value unit" line per metric and per
   diagnostic, then, as the last line, one JSON object with exactly the
   keys correct, attempted, failed and metrics. *)

open Xsc_serve
module Clock = Xsc_obs.Clock
module Gcstat = Xsc_obs.Gcstat
module Harness = Xsc_resilience.Harness
module Json = Xsc_util.Json
module Fbuf = Client.Fbuf

type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** the catalog metrics of the mode *)
  diagnostics : (string * float * string) list;  (** name, value, unit *)
  problems : string list;  (** broken correctness gates *)
}

(* ---- output ---- *)

let rec json_to_string = function
  | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b
  | Json.Num x when not (Float.is_finite x) -> "null"
  | Json.Num x when Float.is_integer x && Float.abs x < 1e15 -> Printf.sprintf "%.0f" x
  | Json.Num x -> Printf.sprintf "%.17g" x
  | Json.Str s -> "\"" ^ Json.escape s ^ "\""
  | Json.List l -> "[" ^ String.concat ", " (List.map json_to_string l) ^ "]"
  | Json.Obj kv ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> "\"" ^ Json.escape k ^ "\": " ^ json_to_string v) kv)
    ^ "}"

let unit_of name = match Catalog.find name with Some m -> m.Catalog.unit | None -> "?"

let summary_json ~correct ~attempted ~failed metrics =
  json_to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, v) ->
                  (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (unit_of name)) ]))
                metrics) );
       ])

let print_result r =
  List.iter (fun (name, v) -> Printf.printf "%s %s %.12g %s\n" r.workload name v (unit_of name)) r.metrics;
  List.iter (fun (name, v, u) -> Printf.printf "%s %s %.12g %s\n" r.workload name v u) r.diagnostics;
  List.iter (fun p -> Printf.eprintf "%s: FAILED %s\n" r.workload p) r.problems;
  print_endline
    (summary_json ~correct:r.correct ~attempted:(max 1 r.attempted) ~failed:r.failed r.metrics)

(* ---- helpers ---- *)

let div a b = if b > 0.0 then a /. b else 0.0
let fi = float_of_int
let setups = 15

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0.0
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> fi kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

let lanes (w : Workload.t) =
  match w.Workload.server.Server.dispatch with
  | Server.Shared n -> n
  | Server.Slot -> w.Workload.server.Server.workers

(* Problems of a pass whose answers must all be right and complete. *)
let answer_problems label (t : Client.tally) =
  let wrong = Client.sum (fun c -> c.Client.wrong) t in
  let failed = Client.sum (fun c -> c.Client.failed + c.Client.rejected) t in
  (if wrong > 0 then [ Printf.sprintf "%s: %d answer(s) not bitwise equal to the oracle" label wrong ] else [])
  @ (if failed > 0 then
       [ Printf.sprintf "%s: %d request(s) refused or failed (%s)" label failed (String.concat "; " t.Client.errors) ]
     else [])

(* Start a server and run one awaited back-to-back pass over the primary
   class's distinct instances: the set-up a server needs before it serves
   at speed. *)
let start_warm (w : Workload.t) ~seed ~spans ~instances ~watchdog ~current =
  let t0 = Clock.now_ns () in
  let harness = Workload.harness w ~seed in
  let srv = Server.start ?harness (Workload.server_config w ~spans) in
  let warm = Client.create_tally (Array.length w.Workload.classes) in
  current := warm;
  let arrivals =
    Array.init (Array.length instances.(0)) (fun i -> { Workload.due_ns = 0; cls = 0; inst = i })
  in
  Client.drive srv w ~loop:(Workload.Closed 32) ~instances ~arrivals ~keep:false ~watchdog warm;
  (srv, harness, Clock.ns_to_s (Clock.now_ns () - t0), answer_problems "warm pass" warm)

type measured = {
  tally : Client.tally;
  problems : string list;
  c0 : Server.counters;
  c1 : Server.counters;
}

(* The measured phase on a warm server, then [stop] and the accounting
   identities. *)
let measure srv harness (w : Workload.t) ~instances ~arrivals ~keep ~watchdog ~current =
  let c0 = Server.counters srv in
  let r0 = Option.map Harness.raised harness in
  let tally = Client.create_tally (Array.length w.Workload.classes) in
  current := tally;
  Client.drive srv w ~loop:w.Workload.loop ~instances ~arrivals ~keep ~watchdog tally;
  Client.Watchdog.beat watchdog;
  Server.stop srv;
  let c1 = Server.counters srv in
  let raised =
    match (harness, r0) with Some h, Some r0 -> Some (Harness.raised h - r0) | _ -> None
  in
  let broken = Client.reconcile ~c0 ~c1 ~in_flight:(Server.in_flight srv) ~raised tally in
  let wrong = Client.sum (fun c -> c.Client.wrong) tally in
  let problems =
    List.map (fun s -> "reconciliation: " ^ s) broken
    @ if wrong > 0 then [ Printf.sprintf "%d answer(s) not bitwise equal to the oracle" wrong ] else []
  in
  { tally; problems; c0; c1 }

let diagnostics (w : Workload.t) (t : Client.tally) =
  let offered = Client.offered t in
  let prim = t.Client.classes.(0) in
  let count name v = (name, fi v, "count") in
  [
    count "offered" offered;
    count "admitted" (Client.sum (fun c -> c.Client.admitted) t);
    count "rejected" (Client.sum (fun c -> c.Client.rejected) t);
    count "completed" (Client.completed t);
    count "failed" (Client.sum (fun c -> c.Client.failed) t);
    count "wrong" (Client.sum (fun c -> c.Client.wrong) t);
    count "lost" (t.Client.unresolved ());
    count "over_limit" (Client.sum (fun c -> c.Client.over_limit) t);
    count "retried" t.Client.retries;
    ("miss_frac", div (fi (Client.misses t)) (fi offered), "frac");
    count "samples" prim.Client.lat_ms.Fbuf.n;
    ("p99_ms", Fbuf.pct prim.Client.lat_ms 99.0, "ms");
    ("p999_ms", Fbuf.pct prim.Client.lat_ms 99.9, "ms");
  ]
  @ (if w.Workload.loop = Workload.Open then [ ("late_p99_ms", Fbuf.pct t.Client.late_ms 99.0, "ms") ]
     else [])
  @
  if Array.length t.Client.classes > 1 then
    let s = t.Client.classes.(1).Client.lat_ms in
    [
      count "sparse_samples" s.Fbuf.n;
      ("sparse_p50_ms", Fbuf.pct s 50.0, "ms");
      ("sparse_p90_ms", Fbuf.pct s 90.0, "ms");
    ]
  else []

(* The watchdog's way out: report what never resolved and end the process
   rather than hang. *)
let on_hang (w : Workload.t) current () =
  let t = !current in
  print_result
    {
      workload = w.Workload.name;
      correct = false;
      attempted = Client.offered t;
      failed = Client.failures t;
      metrics = [];
      diagnostics = diagnostics w t;
      problems =
        [
          Printf.sprintf "%d request(s) never resolved (%s)" (t.Client.unresolved ())
            (t.Client.server_state ());
        ];
    };
  exit 3

(* ---- --trace 0: the gated end-to-end metrics ---- *)

let end_to_end (w : Workload.t) ~seed ~seconds ~instances ~watchdog ~current =
  let times = ref [] and problems = ref [] and kept = ref None in
  for k = 1 to setups do
    let srv, harness, dt, warm = start_warm w ~seed ~spans:false ~instances ~watchdog ~current in
    times := dt :: !times;
    problems := !problems @ warm;
    if k < setups then Server.stop srv else kept := Some (srv, harness)
  done;
  let srv, harness = Option.get !kept in
  let arrivals =
    Workload.arrivals w ~seed ~instances ~count:(fun _ c -> Workload.requests c ~seconds)
  in
  let m = measure srv harness w ~instances ~arrivals ~keep:false ~watchdog ~current in
  let t = m.tally in
  let prim = t.Client.classes.(0) in
  let completed = fi (Client.completed t) in
  let metrics =
    [
      ("setup_s", Xsc_util.Stats.median (Array.of_list !times));
      ("p50_ms", Fbuf.pct prim.Client.lat_ms 50.0);
      ("p90_ms", Fbuf.pct prim.Client.lat_ms 90.0);
      ("throughput_rps", div completed t.Client.wall_s);
      ("cpu_ms_per_req", div (t.Client.cpu_s *. 1e3) completed);
      ("peak_rss_mb", peak_rss_mb ());
    ]
  in
  let problems = !problems @ m.problems in
  {
    workload = w.Workload.name;
    correct = problems = [];
    attempted = Client.offered t;
    failed = Client.failures t;
    metrics;
    diagnostics = diagnostics w t;
    problems;
  }

(* ---- --trace 1: the per-layer metrics ---- *)

let per_layer (w : Workload.t) ~seed ~seconds ~instances ~watchdog ~current =
  (* each served part gets half the budget, and a traced server stays
     under the span collector's capacity *)
  let count _ (c : Workload.cls) =
    min c.Workload.traced_cap (Workload.requests c ~seconds:(seconds /. 2.0))
  in
  let arrivals = Workload.arrivals w ~seed ~instances ~count in
  (* (a) the served run with spans off: everything a client or a counter
     can time without spans *)
  let srv, harness, _, warm_a = start_warm w ~seed ~spans:false ~instances ~watchdog ~current in
  let hits0 = Scratch.hits () and misses0 = Scratch.misses () and gc0 = Gcstat.snap () in
  let a = measure srv harness w ~instances ~arrivals ~keep:false ~watchdog ~current in
  let gc = Gcstat.delta ~before:gc0 ~after:(Gcstat.snap ()) in
  let hits = Scratch.hits () - hits0 and misses = Scratch.misses () - misses0 in
  let entries = List.length (Xsc_runtime.Trace.entries (Server.trace srv)) in
  (* (b) the same traffic with spans on: the latency ledger *)
  let srv, harness, _, warm_b = start_warm w ~seed ~spans:true ~instances ~watchdog ~current in
  let b = measure srv harness w ~instances ~arrivals ~keep:true ~watchdog ~current in
  let dropped = Server.span_dropped srv in
  let ledger = Layers.ledger ~records:(Server.span_records srv) ~done_:b.tally.Client.done_ in
  (* (c) direct replay of the distinct instances on the benchmark's pool *)
  let jobs =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun ci (c : Workload.cls) ->
              let insts = instances.(ci) in
              List.init
                (min c.Workload.replays (Workload.requests c ~seconds))
                (fun i -> insts.(i mod Array.length insts)))
            w.Workload.classes))
  in
  Client.Watchdog.beat watchdog;
  let rp = Layers.replay ~lanes:(lanes w) ~jobs in
  let ta = a.tally in
  let prim = ta.Client.classes.(0) in
  let completed = fi (Client.completed ta) in
  let d f = fi (f a.c1 - f a.c0) in
  let sparse p =
    if Array.length ta.Client.classes > 1 then Fbuf.pct ta.Client.classes.(1).Client.lat_ms p else 0.0
  in
  let plans = fi rp.Layers.plans in
  let kernels =
    List.concat
      (List.mapi
         (fun k f ->
           let ns = fi (Atomic.get rp.Layers.op_ns.(k)) in
           [
             (Printf.sprintf "kernel.%s.calls" f, div (fi (Atomic.get rp.Layers.calls.(k))) plans);
             (Printf.sprintf "kernel.%s.busy_ms" f, div (ns /. 1e6) plans);
             (Printf.sprintf "kernel.%s.gflops" f, div rp.Layers.flops.(k) ns);
           ])
         Catalog.kernel_families)
  in
  let lf x = Layers.frac ledger x in
  let metrics =
    [
      ("loadgen.late_p99_ms", Fbuf.pct ta.Client.late_ms 99.0);
      ("server.submit_us.p50", Fbuf.pct ta.Client.submit_us 50.0);
      ("server.submit_us.p99", Fbuf.pct ta.Client.submit_us 99.0);
      ("server.queue_wait_ms.p50", Fbuf.pct prim.Client.queue_wait_ms 50.0);
      ("server.queue_wait_ms.p99", Fbuf.pct prim.Client.queue_wait_ms 99.0);
      ("server.service_ms.p50", Fbuf.pct prim.Client.service_ms 50.0);
      ("server.service_ms.p99", Fbuf.pct prim.Client.service_ms 99.0);
      ("server.notify_us.p50", Fbuf.pct ta.Client.notify_us 50.0);
      ( "server.batch_size.mean",
        div (d (fun c -> c.Server.admitted)) (d (fun c -> c.Server.batches)) );
      ("server.retried", d (fun c -> c.Server.retried));
      ("server.miss_frac", div (fi (Client.misses ta)) (fi (Client.offered ta)));
      ("route.plan_us.p50", Fbuf.pct rp.Layers.plan_us 50.0);
      ("route.pack_us.p50", Fbuf.pct rp.Layers.pack_us 50.0);
      ("route.finish_us.p50", Fbuf.pct rp.Layers.finish_us 50.0);
      ("pool.queue_us.p50", Fbuf.pct ledger.Layers.pool_queue_us 50.0);
      ("pool.queue_us.p99", Fbuf.pct ledger.Layers.pool_queue_us 99.0);
      ("pool.makespan_ms.p50", Fbuf.pct rp.Layers.makespan_ms 50.0);
      ("pool.busy_frac", div (fi rp.Layers.busy_ns) (fi rp.Layers.lane_ns));
    ]
    @ kernels
    @ [
        ("sparse.p50_ms", sparse 50.0);
        ("sparse.p90_ms", sparse 90.0);
        ("sparse.solve_ms.p50", Fbuf.pct rp.Layers.solve_ms 50.0);
        ("sparse.chunk_ms.max", Fbuf.pct rp.Layers.chunk_max_ms 50.0);
        ("sparse.gbps_computed", div rp.Layers.spmv_bytes (fi rp.Layers.sparse_ns));
        ("scratch.hit_frac", div (fi hits) (fi (hits + misses)));
        ("gc.minor_words_per_req", div gc.Gcstat.minor_words completed);
        ("gc.major_per_kreq", div (fi gc.Gcstat.major_collections *. 1e3) completed);
        ( "obs.span_records_per_req",
          div (fi ledger.Layers.records) (fi ledger.Layers.requests) );
        ( "obs.span_overhead_frac",
          div (Fbuf.pct b.tally.Client.classes.(0).Client.lat_ms 50.0) (Fbuf.pct prim.Client.lat_ms 50.0)
          -. 1.0 );
        ("obs.trace_entries_retained", fi entries);
        ("ledger.late_frac", lf ledger.Layers.late);
        ("ledger.wait_frac", lf ledger.Layers.wait);
        ("ledger.dispatch_frac", lf ledger.Layers.dispatch);
        ("ledger.pool_queue_frac", lf ledger.Layers.pool_queue);
        ("ledger.pack_frac", lf ledger.Layers.pack);
        ("ledger.kernel_frac", lf ledger.Layers.kernel);
        ("ledger.retry_frac", lf ledger.Layers.retry);
        ("ledger.finish_frac", lf ledger.Layers.finish);
        ("ledger.unattributed_frac", Layers.unattributed_frac ledger);
      ]
  in
  let problems =
    warm_a @ warm_b
    @ List.map (fun p -> "untraced part: " ^ p) a.problems
    @ List.map (fun p -> "traced part: " ^ p) b.problems
    @ List.map (fun (p, n) -> Printf.sprintf "ledger: %s (%d requests)" p n) ledger.Layers.problems
    @ (if dropped > 0 then [ Printf.sprintf "span collector dropped %d records" dropped ] else [])
    @
    if rp.Layers.wrong > 0 then
      [ Printf.sprintf "replay: %d answer(s) not bitwise equal to the oracle" rp.Layers.wrong ]
    else []
  in
  {
    workload = w.Workload.name;
    correct = problems = [];
    attempted = Client.offered ta + Client.offered b.tally + rp.Layers.plans;
    failed = Client.failures ta + Client.failures b.tally + rp.Layers.wrong;
    metrics;
    diagnostics =
      diagnostics w ta
      @ [ ("traced_samples", fi b.tally.Client.classes.(0).Client.lat_ms.Fbuf.n, "count");
          ("replayed", plans, "count") ];
    problems;
  }

(* ---- soak: the span-collector race reproducer ---- *)

(* Requests per soak run: ~72,000 span records, past the collector's
   65,536, so every run sheds records. *)
let soak_requests = 14_000

(* small-closed with spans on and enough requests to overflow the span
   collector. Under a transient storm with a retry budget no request
   should fail, so every typed failure is spurious. *)
let soak (w : Workload.t) ~seed ~instances ~watchdog ~current =
  let harness = Workload.harness w ~seed in
  let srv = Server.start ?harness (Workload.server_config w ~spans:true) in
  let arrivals = Workload.arrivals w ~seed ~instances ~count:(fun _ _ -> soak_requests) in
  let m = measure srv harness w ~instances ~arrivals ~keep:false ~watchdog ~current in
  let t = m.tally in
  let problems = m.problems @ List.map (fun e -> "spurious failure: " ^ e) t.Client.errors in
  {
    workload = w.Workload.name;
    correct = problems = [];
    attempted = Client.offered t;
    failed = Client.failures t;
    metrics = [];
    diagnostics =
      diagnostics w t @ [ ("span_dropped", fi (Server.span_dropped srv), "count") ];
    problems;
  }

(* ---- one process, one workload ---- *)

let hang_limit_s = 20.0

let with_watchdog (w : Workload.t) ~seed ~seconds f =
  let current = ref (Client.create_tally (Array.length w.Workload.classes)) in
  let watchdog = Client.Watchdog.start ~limit_s:hang_limit_s ~on_fire:(on_hang w current) in
  let instances = Workload.prepare w ~seed ~seconds in
  Client.Watchdog.beat watchdog;
  Fun.protect
    ~finally:(fun () -> Client.Watchdog.stop watchdog)
    (fun () -> f ~instances ~watchdog ~current)

let run w ~seed ~seconds ~trace =
  with_watchdog w ~seed ~seconds ((if trace then per_layer else end_to_end) w ~seed ~seconds)

let soak_run w ~seed = with_watchdog w ~seed ~seconds:1.0 (soak w ~seed)
