(* Tests for Xsc_obs: the monotonic clock, the metrics registry (exactness
   under concurrent domains) and causal spans. *)

module Clock = Xsc_obs.Clock
module Metrics = Xsc_obs.Metrics
module Json = Xsc_util.Json

(* ---- Clock ---- *)

let test_clock_monotonic () =
  let a = Clock.now_ns () in
  let b = Clock.now_ns () in
  let c = Clock.now_ns () in
  Alcotest.(check bool) "never goes backwards" true (a <= b && b <= c);
  Alcotest.(check bool) "positive" true (a > 0)

let test_clock_advances () =
  let t0 = Clock.now_ns () in
  (* ~1 ms of real work so even a coarse clock must tick *)
  let acc = ref 0.0 in
  while Clock.now_ns () - t0 < 1_000_000 do
    acc := !acc +. 1.0
  done;
  Alcotest.(check bool) "advanced by >= 1ms" true (Clock.now_ns () - t0 >= 1_000_000)

let test_clock_seconds () =
  let s = Clock.now_s () in
  Alcotest.(check bool) "seconds positive" true (s > 0.0);
  Alcotest.(check (float 1e-9)) "ns_to_s" 1.5 (Clock.ns_to_s 1_500_000_000)

(* ---- Metrics ---- *)

let test_counter_exact_concurrent () =
  Metrics.reset ();
  let c = Metrics.counter "test.concurrent" in
  let domains =
    Array.init 8 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Metrics.incr c
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "8 domains x 10000 incr" 80_000 (Metrics.counter_value c)

let test_counter_find_or_create () =
  let a = Metrics.counter "test.same" in
  let b = Metrics.counter "test.same" in
  Metrics.add a 3;
  Metrics.add b 4;
  Alcotest.(check int) "one underlying counter" 7 (Metrics.counter_value a)

let test_counter_shard_addressing () =
  let c = Metrics.counter ~shards:4 "test.sharded" in
  Metrics.add_to_shard c ~shard:0 5;
  Metrics.add_to_shard c ~shard:3 7;
  Metrics.add_to_shard c ~shard:4 1;
  (* wraps modulo shard count *)
  Alcotest.(check int) "sum over shards" 13 (Metrics.counter_value c)

let test_gauge () =
  let g = Metrics.gauge "test.gauge" in
  Metrics.set_gauge g 2.5;
  Alcotest.(check bool) "set/get" true
    (List.assoc "test.gauge" (Metrics.snapshot ()) = Metrics.Gauge 2.5)

let test_histogram () =
  let h = Metrics.histogram "test.hist" in
  List.iter (Metrics.observe h) [ 0.001; 0.002; 0.004; 0.1 ];
  (match List.assoc "test.hist" (Metrics.snapshot ()) with
  | Metrics.Histogram s ->
    Alcotest.(check int) "count" 4 s.Metrics.count;
    Alcotest.(check (float 1e-9)) "sum" 0.107 s.Metrics.sum
  | _ -> Alcotest.fail "test.hist is not a histogram");
  let p50 = Metrics.quantile h 0.5 in
  Alcotest.(check bool) "p50 bracketed" true (p50 >= 0.002 && p50 <= 0.008);
  Alcotest.(check bool) "p100 >= max bucket lower bound" true (Metrics.quantile h 1.0 >= 0.1)

let test_name_type_clash () =
  ignore (Metrics.counter "test.clash");
  Alcotest.check_raises "counter vs gauge"
    (Invalid_argument "Metrics: \"test.clash\" already registered as another type")
    (fun () -> ignore (Metrics.gauge "test.clash"))

let test_snapshot_and_json () =
  Metrics.reset ();
  let c = Metrics.counter "test.json.counter" in
  Metrics.add c 42;
  let g = Metrics.gauge "test.json.gauge" in
  Metrics.set_gauge g 1.5;
  let h = Metrics.histogram "test.json.hist" in
  Metrics.observe h 0.25;
  let snap = Metrics.snapshot () in
  Alcotest.(check bool) "counter in snapshot" true
    (List.exists
       (fun (n, v) -> n = "test.json.counter" && v = Metrics.Counter 42)
       snap);
  (* the printed export must parse back with our values in place *)
  let json = Json.parse (Json.to_string (Metrics.to_json ())) in
  (match Json.member "counters" json with
  | Some (Json.Obj fields) ->
    Alcotest.(check bool) "counter exported" true
      (List.mem_assoc "test.json.counter" fields
      && List.assoc "test.json.counter" fields = Json.Num 42.0)
  | _ -> Alcotest.fail "no counters object");
  match Json.member "histograms" json with
  | Some (Json.Obj fields) ->
    Alcotest.(check bool) "histogram exported" true (List.mem_assoc "test.json.hist" fields);
    (match List.assoc "test.json.hist" fields with
    | Json.Obj h ->
      List.iter
        (fun q ->
          Alcotest.(check bool) (q ^ " exported") true (List.mem_assoc q h))
        [ "p50"; "p95"; "p99"; "p999" ]
    | _ -> Alcotest.fail "histogram is not an object")
  | _ -> Alcotest.fail "no histograms object"

(* The bucket-quantile contract: the estimate is the bucket upper bound,
   so it never understates and overstates by at most 2x. *)
let test_histogram_tail_quantiles () =
  let h = Metrics.histogram "test.hist.tail" in
  (* 999 fast observations and one 1000x-slower outlier *)
  for _ = 1 to 999 do
    Metrics.observe h 0.001
  done;
  Metrics.observe h 1.0;
  let p50 = Metrics.quantile h 0.5
  and p99 = Metrics.quantile h 0.99
  and p999 = Metrics.quantile h 0.999
  and p1000 = Metrics.quantile h 1.0 in
  Alcotest.(check bool) "p50 brackets the mode" true (p50 >= 0.001 && p50 <= 0.002);
  Alcotest.(check bool) "p99 still in the mode bucket" true (p99 <= 0.002);
  Alcotest.(check bool) "p999 still in the mode bucket" true (p999 <= 0.002);
  Alcotest.(check bool) "p100 sees the outlier, never understates" true
    (p1000 >= 1.0 && p1000 <= 2.0)

let test_metrics_delta () =
  Metrics.reset ();
  let c = Metrics.counter "test.delta.counter" in
  let g = Metrics.gauge "test.delta.gauge" in
  let h = Metrics.histogram "test.delta.hist" in
  Metrics.add c 10;
  Metrics.set_gauge g 1.0;
  Metrics.observe h 0.5;
  let before = Metrics.snapshot () in
  Metrics.add c 7;
  Metrics.set_gauge g 9.0;
  Metrics.observe h 0.25;
  Metrics.observe h 0.25;
  let fresh = Metrics.counter "test.delta.fresh" in
  Metrics.add fresh 3;
  let d = Metrics.delta ~before ~after:(Metrics.snapshot ()) in
  (match List.assoc "test.delta.counter" d with
  | Metrics.Counter n -> Alcotest.(check int) "counter subtracts" 7 n
  | _ -> Alcotest.fail "counter kind changed");
  (match List.assoc "test.delta.gauge" d with
  | Metrics.Gauge v -> Alcotest.(check (float 0.0)) "gauge is a level: after wins" 9.0 v
  | _ -> Alcotest.fail "gauge kind changed");
  (match List.assoc "test.delta.hist" d with
  | Metrics.Histogram s ->
    Alcotest.(check int) "hist count subtracts" 2 s.Metrics.count;
    Alcotest.(check (float 1e-9)) "hist sum subtracts" 0.5 s.Metrics.sum
  | _ -> Alcotest.fail "histogram kind changed");
  match List.assoc "test.delta.fresh" d with
  | Metrics.Counter n -> Alcotest.(check int) "absent-from-before passes through" 3 n
  | _ -> Alcotest.fail "fresh counter kind changed"

(* ---- Span ---- *)

module Span = Xsc_obs.Span

let span_rec ?(request = 1) ?(span = 10) ?(parent = -1) ?(phase = "request")
    ?(start_ns = 100) ?(finish_ns = 200) () =
  { Span.request; span; parent; phase; name = "t"; lane = 0; attempt = 0;
    start_ns; finish_ns }

let test_span_ids_and_children () =
  let a = Span.root ~sink:None ~request:7 in
  let b = Span.child a in
  let c = Span.child b in
  Alcotest.(check int) "root has no parent" (-1) a.Span.parent;
  Alcotest.(check int) "child keeps the request" 7 b.Span.request;
  Alcotest.(check int) "child parents on root" a.Span.span b.Span.parent;
  Alcotest.(check int) "grandchild parents on child" b.Span.span c.Span.parent;
  Alcotest.(check bool) "ids strictly increase" true
    (a.Span.span < b.Span.span && b.Span.span < c.Span.span);
  let first = Span.fresh_id () in
  let second = Span.fresh_id () in
  Alcotest.(check bool) "fresh ids never repeat" true (first < second)

let test_span_ambient_restores () =
  Span.set_current None;
  let ctx = Span.root ~sink:None ~request:3 in
  Span.with_current (Some ctx) (fun () ->
      Alcotest.(check bool) "set inside" true (Span.current () = Some ctx));
  Alcotest.(check bool) "restored on return" true (Span.current () = None);
  (try
     Span.with_current (Some ctx) (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "restored on raise" true (Span.current () = None)

let test_span_collector_overwrites_oldest () =
  let c = Span.collector ~capacity:4 () in
  for i = 0 to 9 do
    Span.record c (span_rec ~span:(100 + i) ())
  done;
  (* overwrite-oldest: the newest four survive, in record order *)
  Alcotest.(check (list int)) "newest four in order" [ 106; 107; 108; 109 ]
    (List.map (fun (r : Span.record) -> r.span) (Span.records c));
  Alcotest.(check int) "overwritten counted" 6 (Span.dropped c);
  Alcotest.(check (list int)) "last two" [ 108; 109 ]
    (List.map (fun (r : Span.record) -> r.span) (Span.records ~last:2 c))

let test_span_collector_concurrent_writers () =
  (* several domains lap a small ring many times over: once they are
     quiescent every offered record is either a survivor or counted as
     overwritten, no survivor appears twice, and each writer's survivors
     keep that writer's order *)
  let writers = 3 and per_writer = 5000 and capacity = 64 in
  let c = Span.collector ~capacity () in
  let ds =
    List.init writers (fun w ->
        Domain.spawn (fun () ->
            for i = 0 to per_writer - 1 do
              Span.record c (span_rec ~request:w ~span:((w * per_writer) + i) ())
            done))
  in
  List.iter Domain.join ds;
  let rs = Span.records c in
  Alcotest.(check int) "records + dropped = offered" (writers * per_writer)
    (List.length rs + Span.dropped c);
  Alcotest.(check int) "ring full" capacity (List.length rs);
  let ids = List.map (fun (r : Span.record) -> r.span) rs in
  Alcotest.(check int) "no duplicate span ids" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  for w = 0 to writers - 1 do
    let mine = List.filter_map (fun (r : Span.record) -> if r.request = w then Some r.span else None) rs in
    Alcotest.(check bool) (Printf.sprintf "writer %d in order" w) true
      (mine = List.sort compare mine)
  done

let test_span_note_ambient () =
  let c = Span.collector () in
  Fun.protect
    ~finally:(fun () -> Span.set_current None)
    (fun () ->
      (* no ambient context, or one without a sink: note is a silent no-op *)
      Span.note ~phase:"task" ~name:"orphan" ~lane:0 ~attempt:0 ~start_ns:1 ~finish_ns:2;
      Alcotest.(check bool) "inactive without ambient" false (Span.active ());
      Span.with_current (Some (Span.root ~sink:None ~request:4)) (fun () ->
          Alcotest.(check bool) "inactive without sink" false (Span.active ());
          Span.note ~phase:"task" ~name:"off" ~lane:0 ~attempt:0 ~start_ns:1 ~finish_ns:2);
      Alcotest.(check int) "no sink, no record" 0 (List.length (Span.records c));
      let ctx = Span.root ~sink:(Some c) ~request:5 in
      Span.with_current (Some ctx) (fun () ->
          Alcotest.(check bool) "active with a sink" true (Span.active ());
          Span.note ~phase:"task" ~name:"k" ~lane:2 ~attempt:1 ~start_ns:10 ~finish_ns:20);
      match Span.records c with
      | [ r ] ->
        Alcotest.(check int) "request from ambient" 5 r.Span.request;
        Alcotest.(check int) "parented on ambient" ctx.Span.span r.Span.parent;
        Alcotest.(check string) "phase" "task" r.Span.phase;
        Alcotest.(check int) "lane" 2 r.Span.lane
      | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs))

let test_span_chrome_export () =
  let parent = span_rec ~request:9 ~span:50 ~parent:(-1) ~phase:"request" () in
  let child =
    span_rec ~request:9 ~span:51 ~parent:50 ~phase:"attempt" ~start_ns:120 ~finish_ns:180 ()
  in
  let events = Span.chrome_events ~origin_ns:100 [ parent; child ] in
  (* 2 complete events + an s/f flow pair for the parented child *)
  Alcotest.(check int) "2 X + 2 flow events" 4 (List.length events);
  let json = Json.parse (Span.to_chrome_json ~origin_ns:100 [ parent; child ]) in
  match json with
  | Json.List items ->
    Alcotest.(check int) "array arity" 4 (List.length items);
    let phases =
      List.filter_map
        (fun it ->
          match Json.member "ph" it with Some (Json.Str s) -> Some s | _ -> None)
        items
    in
    List.iter
      (fun ph ->
        Alcotest.(check bool) ("has ph " ^ ph) true (List.mem ph phases))
      [ "X"; "s"; "f" ];
    (* every event lands on the request's lane: pid 1, tid = request id *)
    List.iter
      (fun it ->
        match (Json.member "pid" it, Json.member "tid" it) with
        | Some (Json.Num 1.0), Some (Json.Num 9.0) -> ()
        | _ -> Alcotest.fail "event off the request lane")
      items
  | _ -> Alcotest.fail "not a JSON array"

(* ---- Gcstat ---- *)

module Gcstat = Xsc_obs.Gcstat

let test_gcstat_delta () =
  let before = Gcstat.snap () in
  (* allocate ~80k words so the minor-heap delta must move *)
  let keep = ref [] in
  for i = 0 to 9_999 do
    keep := (i, float_of_int i) :: !keep
  done;
  ignore (Sys.opaque_identity !keep);
  let after = Gcstat.snap () in
  let d = Gcstat.delta ~before ~after in
  Alcotest.(check bool) "minor words grew" true (d.Gcstat.minor_words > 40_000.0);
  Alcotest.(check bool) "heap_words is a level from after" true
    (d.Gcstat.heap_words = after.Gcstat.heap_words);
  Alcotest.(check bool) "collections non-negative" true (d.Gcstat.minor_collections >= 0)

let test_gcstat_phase_gauges () =
  Metrics.reset ();
  let out =
    Gcstat.phase "testphase" (fun () ->
        let keep = Array.init 20_000 (fun i -> float_of_int i) in
        Array.length (Sys.opaque_identity keep))
  in
  Alcotest.(check int) "phase returns the result" 20_000 out;
  Alcotest.(check bool) "phase gauge published" true
    (match List.assoc "gc.testphase.minor_words" (Metrics.snapshot ()) with
    | Metrics.Gauge w -> w > 10_000.0
    | _ -> false);
  (* gauges are set even when the phase raises *)
  (try Gcstat.phase "testraise" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "raise still publishes" true
    (List.mem_assoc "gc.testraise.minor_words" (Metrics.snapshot ()))

let () =
  Alcotest.run "xsc_obs"
    [
      ( "clock",
        [
          Alcotest.test_case "monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "advances" `Quick test_clock_advances;
          Alcotest.test_case "seconds" `Quick test_clock_seconds;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "exact under 8 domains" `Quick test_counter_exact_concurrent;
          Alcotest.test_case "find-or-create" `Quick test_counter_find_or_create;
          Alcotest.test_case "shard addressing" `Quick test_counter_shard_addressing;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "tail quantiles" `Quick test_histogram_tail_quantiles;
          Alcotest.test_case "name/type clash" `Quick test_name_type_clash;
          Alcotest.test_case "snapshot and JSON" `Quick test_snapshot_and_json;
          Alcotest.test_case "snapshot delta" `Quick test_metrics_delta;
        ] );
      ( "span",
        [
          Alcotest.test_case "ids and children" `Quick test_span_ids_and_children;
          Alcotest.test_case "ambient restores" `Quick test_span_ambient_restores;
          Alcotest.test_case "collector overwrites oldest" `Quick
            test_span_collector_overwrites_oldest;
          Alcotest.test_case "collector concurrent writers" `Quick
            test_span_collector_concurrent_writers;
          Alcotest.test_case "note uses ambient context" `Quick test_span_note_ambient;
          Alcotest.test_case "chrome export" `Quick test_span_chrome_export;
        ] );
      ( "gcstat",
        [
          Alcotest.test_case "snap/delta" `Quick test_gcstat_delta;
          Alcotest.test_case "phase gauges" `Quick test_gcstat_phase_gauges;
        ] );
    ]
