(* Tests for Xsc_serve: bounded-queue invariants under concurrent
   producers, batcher flush triggers, EDF dispatch order, seeded loadgen
   determinism, end-to-end served correctness (bitwise vs the direct
   kernels), backpressure, and seeded fault storms through the server
   (transient faults retried, permanent faults typed, counters
   reconciling). *)

open Xsc_linalg
module Request = Xsc_serve.Request
module Queue = Xsc_serve.Queue
module Batcher = Xsc_serve.Batcher
module Scheduler = Xsc_serve.Scheduler
module Server = Xsc_serve.Server
module Loadgen = Xsc_serve.Loadgen
module Harness = Xsc_resilience.Harness
module Flight = Xsc_resilience.Flight
module Checkpoint = Xsc_resilience.Checkpoint
module Slo = Xsc_serve.Slo
module Span = Xsc_obs.Span
module Clock = Xsc_obs.Clock
module Rng = Xsc_util.Rng
module Json = Xsc_util.Json

(* ---- queue ---- *)

let test_queue_fifo () =
  let q = Queue.create ~capacity:8 in
  for i = 0 to 5 do
    Alcotest.(check bool) "accepted" true (Queue.try_push q i = Queue.Accepted)
  done;
  for i = 0 to 5 do
    Alcotest.(check (option int)) "FIFO pop" (Some i) (Queue.try_pop q)
  done;
  Alcotest.(check (option int)) "empty" None (Queue.try_pop q)

let test_queue_wraparound () =
  let q = Queue.create ~capacity:4 in
  (* push/pop across the ring seam several times *)
  let next = ref 0 and expect = ref 0 in
  for _ = 0 to 9 do
    for _ = 1 to 3 do
      Alcotest.(check bool) "push" true (Queue.try_push q !next = Queue.Accepted);
      incr next
    done;
    for _ = 1 to 3 do
      Alcotest.(check (option int)) "pop in order" (Some !expect) (Queue.try_pop q);
      incr expect
    done
  done

let test_queue_bounded () =
  let q = Queue.create ~capacity:3 in
  for i = 0 to 2 do
    ignore (Queue.try_push q i)
  done;
  Alcotest.(check bool) "full rejects" true (Queue.try_push q 99 = Queue.Full);
  Alcotest.(check int) "length capped" 3 (Queue.length q);
  ignore (Queue.try_pop q);
  Alcotest.(check bool) "accepts after pop" true (Queue.try_push q 3 = Queue.Accepted)

let test_queue_closed () =
  let q = Queue.create ~capacity:3 in
  ignore (Queue.try_push q 1);
  Queue.close q;
  Alcotest.(check bool) "closed rejects" true (Queue.try_push q 2 = Queue.Closed);
  Alcotest.(check (option int)) "closed still drains" (Some 1) (Queue.try_pop q)

(* Bound under concurrent producers and a concurrent consumer: every
   observed length stays within capacity, and accounting reconciles —
   accepted = popped at the end, accepted + rejected = offered. *)
let test_queue_concurrent_bound () =
  let capacity = 16 and producers = 4 and per_producer = 2000 in
  let q = Queue.create ~capacity in
  let accepted = Atomic.make 0 and rejected = Atomic.make 0 in
  let popped = Atomic.make 0 and over = Atomic.make false in
  let stop = Atomic.make false in
  let consumer =
    Domain.spawn (fun () ->
        let rec go () =
          if Queue.length q > capacity then Atomic.set over true;
          match Queue.try_pop q with
          | Some _ ->
            Atomic.incr popped;
            go ()
          | None -> if Atomic.get stop then () else go ()
        in
        go ())
  in
  let workers =
    Array.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to per_producer - 1 do
              match Queue.try_push q ((p * per_producer) + i) with
              | Queue.Accepted -> Atomic.incr accepted
              | Queue.Full -> Atomic.incr rejected
              | Queue.Closed -> assert false
            done))
  in
  Array.iter Domain.join workers;
  Atomic.set stop true;
  Domain.join consumer;
  Alcotest.(check bool) "length never exceeded capacity" false (Atomic.get over);
  Alcotest.(check int) "offered = accepted + rejected" (producers * per_producer)
    (Atomic.get accepted + Atomic.get rejected);
  Alcotest.(check int) "accepted all popped" (Atomic.get accepted) (Atomic.get popped)

(* ---- batcher ---- *)

let req ~id ?(n = 4) ~submit_ns ~deadline_ns () =
  let rng = Rng.create (id + 1) in
  {
    Request.id;
    payload = Request.Spd_solve (Mat.random_spd rng n, Vec.random rng n);
    submit_ns;
    deadline_ns;
    span = Xsc_obs.Span.root ~sink:None ~request:id;
  }

let test_batcher_size_flush () =
  let b = Batcher.create { Batcher.max_batch = 3; linger_ns = 1_000_000_000 } in
  Alcotest.(check bool) "no flush at 1" true
    (Batcher.add b ~now_ns:0 (req ~id:0 ~submit_ns:0 ~deadline_ns:max_int ()) = None);
  Alcotest.(check bool) "no flush at 2" true
    (Batcher.add b ~now_ns:10 (req ~id:1 ~submit_ns:10 ~deadline_ns:max_int ()) = None);
  (match Batcher.add b ~now_ns:20 (req ~id:2 ~submit_ns:20 ~deadline_ns:max_int ()) with
  | None -> Alcotest.fail "expected size-triggered flush at max_batch"
  | Some batch ->
    Alcotest.(check int) "batch size" 3 (Array.length batch.Batcher.requests);
    Alcotest.(check (list int)) "arrival order kept" [ 0; 1; 2 ]
      (Array.to_list (Array.map (fun r -> r.Request.id) batch.Batcher.requests)));
  Alcotest.(check int) "nothing pending" 0 (Batcher.pending b)

let test_batcher_linger_flush () =
  let b = Batcher.create { Batcher.max_batch = 64; linger_ns = 1000 } in
  ignore (Batcher.add b ~now_ns:0 (req ~id:0 ~submit_ns:0 ~deadline_ns:max_int ()));
  Alcotest.(check int) "not due yet" 0 (List.length (Batcher.flush_due b ~now_ns:500));
  (* deadline-triggered: fires a partial batch without ever reaching max_batch *)
  match Batcher.flush_due b ~now_ns:1001 with
  | [ batch ] ->
    Alcotest.(check int) "partial batch of 1" 1 (Array.length batch.Batcher.requests)
  | other -> Alcotest.fail (Printf.sprintf "expected 1 flush, got %d" (List.length other))

let test_batcher_deadline_urgency_flush () =
  (* a member whose deadline is within the linger flushes early *)
  let b = Batcher.create { Batcher.max_batch = 64; linger_ns = 1_000_000 } in
  ignore (Batcher.add b ~now_ns:0 (req ~id:0 ~submit_ns:0 ~deadline_ns:1_200_000 ()));
  Alcotest.(check int) "urgent member flushes before linger" 1
    (List.length (Batcher.flush_due b ~now_ns:300_000))

let test_batcher_classes_separate () =
  let b = Batcher.create { Batcher.max_batch = 2; linger_ns = 1_000_000_000 } in
  ignore (Batcher.add b ~now_ns:0 (req ~id:0 ~n:4 ~submit_ns:0 ~deadline_ns:max_int ()));
  (* different size => different class => no size flush *)
  Alcotest.(check bool) "sizes do not mix" true
    (Batcher.add b ~now_ns:0 (req ~id:1 ~n:8 ~submit_ns:0 ~deadline_ns:max_int ()) = None);
  Alcotest.(check int) "both pending" 2 (Batcher.pending b);
  match Batcher.add b ~now_ns:0 (req ~id:2 ~n:4 ~submit_ns:0 ~deadline_ns:max_int ()) with
  | Some batch ->
    Alcotest.(check string) "n=4 class flushed" "spd:4" batch.Batcher.class_key
  | None -> Alcotest.fail "expected the n=4 class to flush at 2 members"

(* ---- scheduler ---- *)

let batch ~seq ~deadline_ns =
  {
    Batcher.seq;
    class_key = "spd:4";
    requests = [| req ~id:seq ~submit_ns:0 ~deadline_ns () |];
    deadline_ns;
    opened_ns = 0;
  }

let test_scheduler_edf_order () =
  let s = Scheduler.create () in
  List.iter (Scheduler.push s)
    [ batch ~seq:0 ~deadline_ns:30; batch ~seq:1 ~deadline_ns:10;
      batch ~seq:2 ~deadline_ns:20; batch ~seq:3 ~deadline_ns:10 ];
  let popped = List.init 4 (fun _ -> Option.get (Scheduler.pop s)) in
  Alcotest.(check (list int)) "EDF with FIFO tie-break" [ 1; 3; 2; 0 ]
    (List.map (fun b -> b.Batcher.seq) popped);
  Alcotest.(check bool) "drained" true (Scheduler.pop s = None)

let test_scheduler_fifo_within_class () =
  let s = Scheduler.create () in
  for seq = 0 to 9 do
    Scheduler.push s (batch ~seq ~deadline_ns:42)
  done;
  let order = List.init 10 (fun _ -> (Option.get (Scheduler.pop s)).Batcher.seq) in
  Alcotest.(check (list int)) "equal deadlines pop in formation order"
    (List.init 10 Fun.id) order

(* ---- loadgen determinism ---- *)

let test_loadgen_deterministic () =
  let cfg = { Loadgen.default with seed = 7; count = 64; rate_hz = 1000.0 } in
  let a = Loadgen.schedule cfg and b = Loadgen.schedule cfg in
  Alcotest.(check int) "same length" (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      Alcotest.(check bool)
        (Printf.sprintf "arrival %d identical" i)
        true
        (x.Loadgen.at_s = b.(i).Loadgen.at_s
        && x.Loadgen.kind = b.(i).Loadgen.kind
        && x.Loadgen.problem_seed = b.(i).Loadgen.problem_seed))
    a;
  let c = Loadgen.schedule { cfg with seed = 8 } in
  Alcotest.(check bool) "different seed, different schedule" true
    (Array.exists
       (fun i -> a.(i).Loadgen.at_s <> c.(i).Loadgen.at_s)
       (Array.init (Array.length a) Fun.id));
  (* arrivals are strictly increasing Poisson times *)
  Array.iteri
    (fun i x -> if i > 0 then Alcotest.(check bool) "monotone" true (x.Loadgen.at_s > a.(i - 1).Loadgen.at_s))
    a

let test_loadgen_payload_deterministic () =
  let cfg = { Loadgen.default with seed = 3; count = 4; n = 6 } in
  let a = (Loadgen.schedule cfg).(0) in
  match (Loadgen.payload_of cfg a, Loadgen.payload_of cfg a) with
  | Request.Spd_solve (m1, b1), Request.Spd_solve (m2, b2) ->
    Alcotest.(check bool) "same matrix" true (Mat.approx_equal ~tol:0.0 m1 m2);
    Alcotest.(check bool) "same rhs" true (Vec.approx_equal ~tol:0.0 b1 b2)
  | _ -> Alcotest.fail "expected SPD payloads"

(* ---- server: end-to-end ---- *)

let check_counters_reconcile name srv ~offered =
  let c = Server.counters srv in
  Alcotest.(check int)
    (name ^ ": admitted = completed + failed")
    c.Server.admitted
    (c.Server.completed + c.Server.failed);
  Alcotest.(check int) (name ^ ": offered = admitted + rejected") offered
    (c.Server.admitted + c.Server.rejected);
  Alcotest.(check int) (name ^ ": drained") 0 (Server.in_flight srv)

(* A single open stream through the one client loop. *)
let serve_open srv load =
  match Loadgen.run srv [ { Loadgen.load; loop = Loadgen.Open } ] with
  | [ r ] -> r.Loadgen.report
  | _ -> Alcotest.fail "one stream, one result"

let test_server_serves_bitwise () =
  let cfg = { Loadgen.default with seed = 5; count = 40; rate_hz = 4000.0; n = 12;
              kinds = [| Loadgen.Spd; Loadgen.General; Loadgen.Product |] } in
  let srv =
    Server.start { Server.default_config with workers = 2; capacity = 64; linger_s = 0.0005 }
  in
  let arrivals = Loadgen.schedule cfg in
  let tickets =
    Array.map (fun a -> (a, Server.submit srv (Loadgen.payload_of cfg a))) arrivals
  in
  Array.iter
    (fun (a, tk) ->
      match tk with
      | Error e -> Alcotest.fail ("unexpected reject: " ^ Request.error_message e)
      | Ok tk -> (
        let c = Server.await srv tk in
        match c.Request.outcome with
        | Error e -> Alcotest.fail ("unexpected failure: " ^ Request.error_message e)
        | Ok sol ->
          Alcotest.(check bool) "bitwise identical to routed oracle" true
            (Loadgen.solutions_bitwise_equal sol (Loadgen.reference_routed cfg a));
          Alcotest.(check bool) "latencies measured" true
            (c.Request.total_s >= 0.0
            && c.Request.queue_wait_s >= 0.0
            && c.Request.service_s >= 0.0)))
    tickets;
  Server.stop srv;
  check_counters_reconcile "serve" srv ~offered:cfg.Loadgen.count;
  (* every completed request left a wait span and a service span *)
  let tr = Server.trace srv in
  Alcotest.(check int) "two spans per request"
    (2 * cfg.Loadgen.count)
    (List.length (Xsc_runtime.Trace.entries tr))

let test_server_isolates_singular () =
  (* one non-SPD matrix in a batch of SPD solves: that request fails
     typed, its batchmates complete *)
  let n = 8 in
  let rng = Rng.create 17 in
  let good () = (Mat.random_spd rng n, Vec.random rng n) in
  let bad =
    (* -I is definitely not SPD *)
    (Mat.init n n (fun i j -> if i = j then -1.0 else 0.0), Vec.random rng n)
  in
  let srv =
    Server.start
      { Server.default_config with workers = 1; max_batch = 8; linger_s = 0.001 }
  in
  let submit (a, b) = Result.get_ok (Server.submit srv (Request.Spd_solve (a, b))) in
  let g1 = submit (good ()) in
  let tb = submit bad in
  let g2 = submit (good ()) in
  let ok t =
    match (Server.await srv t).Request.outcome with Ok _ -> true | Error _ -> false
  in
  Alcotest.(check bool) "good before survives" true (ok g1);
  Alcotest.(check bool) "good after survives" true (ok g2);
  (match (Server.await srv tb).Request.outcome with
  | Error (Request.Failed { attempts; error }) ->
    Alcotest.(check int) "singular not retried" 1 attempts;
    Alcotest.(check bool) "carries the kernel error" true
      (String.length error > 0)
  | Error e -> Alcotest.fail ("expected Failed, got " ^ Request.error_message e)
  | Ok _ -> Alcotest.fail "singular solve cannot succeed");
  Server.stop srv;
  check_counters_reconcile "singular" srv ~offered:3

let test_server_backpressure () =
  (* capacity 4, instant burst of 50: the window must reject most, admit
     and complete the rest — and the bound is the admission window, so
     rejected + admitted = offered exactly. *)
  let n = 16 in
  let rng = Rng.create 23 in
  let srv =
    Server.start
      { Server.default_config with workers = 1; capacity = 4; max_batch = 4;
        linger_s = 0.02 }
  in
  let offered = 50 in
  let tickets =
    List.init offered (fun _ ->
        Server.submit srv (Request.Spd_solve (Mat.random_spd rng n, Vec.random rng n)))
  in
  let admitted = List.filter_map Result.to_option tickets in
  let rejected = offered - List.length admitted in
  Alcotest.(check bool) "backpressure engaged" true (rejected > 0);
  List.iter
    (fun tk ->
      match (Server.await srv tk).Request.outcome with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("admitted request failed: " ^ Request.error_message e))
    admitted;
  Server.stop srv;
  check_counters_reconcile "backpressure" srv ~offered;
  let c = Server.counters srv in
  Alcotest.(check int) "typed rejects counted" rejected c.Server.rejected

let test_server_rejects_after_stop () =
  let srv = Server.start { Server.default_config with workers = 1 } in
  Server.stop srv;
  let rng = Rng.create 3 in
  match Server.submit srv (Request.Spd_solve (Mat.random_spd rng 4, Vec.random rng 4)) with
  | Error (Request.Rejected Request.Shutting_down) -> ()
  | _ -> Alcotest.fail "expected Shutting_down reject"

(* ---- fault storms ---- *)

let storm_cfg =
  { Loadgen.default with seed = 31; count = 60; rate_hz = 5000.0; n = 10;
    deadline_s = 5.0 }

let test_server_fault_storm_transient () =
  let h =
    Harness.create { Harness.default with seed = 9; p_raise = 0.3; transient = true }
  in
  let srv =
    Server.start ~harness:h
      { Server.default_config with workers = 2; capacity = 128; max_retries = 3 }
  in
  let r = serve_open srv storm_cfg in
  Server.stop srv;
  Alcotest.(check int) "no rejects at this window" 0 r.Loadgen.rejected;
  Alcotest.(check int) "every transient fault retried to success" 0 r.Loadgen.failed;
  Alcotest.(check int) "all completed" storm_cfg.Loadgen.count r.Loadgen.completed;
  Alcotest.(check bool) "faults actually fired" true (Harness.raised h > 0);
  Alcotest.(check int) "one retry per injected raise" (Harness.raised h)
    r.Loadgen.retried;
  check_counters_reconcile "transient storm" srv ~offered:storm_cfg.Loadgen.count

let test_server_fault_storm_permanent () =
  let h =
    Harness.create { Harness.default with seed = 9; p_raise = 0.3; transient = false }
  in
  let srv =
    Server.start ~harness:h
      { Server.default_config with workers = 2; capacity = 128; max_retries = 2 }
  in
  let arrivals = Loadgen.schedule storm_cfg in
  let tickets =
    Array.map
      (fun a -> (a, Result.get_ok (Server.submit srv (Loadgen.payload_of storm_cfg a))))
      arrivals
  in
  (* request ids are assigned in submission order: 0..count-1 — the
     injected set is exactly the keys the policy targets *)
  let injected = ref 0 in
  Array.iteri
    (fun i (a, tk) ->
      let c = Server.await srv tk in
      if Harness.targets_key h i then begin
        incr injected;
        match c.Request.outcome with
        | Error (Request.Failed { attempts; _ }) ->
          Alcotest.(check int) "permanent fault exhausts retries" 3 attempts
        | Error e -> Alcotest.fail ("expected Failed, got " ^ Request.error_message e)
        | Ok _ -> Alcotest.fail "permanently injected request cannot succeed"
      end
      else
        match c.Request.outcome with
        | Ok sol ->
          Alcotest.(check bool) "untouched requests bitwise correct" true
            (Loadgen.solutions_bitwise_equal sol (Loadgen.reference_routed storm_cfg a))
        | Error e ->
          Alcotest.fail ("uninjected request failed: " ^ Request.error_message e))
    tickets;
  Server.stop srv;
  Alcotest.(check bool) "storm injected something" true (!injected > 0);
  let c = Server.counters srv in
  Alcotest.(check int) "failed = injected" !injected c.Server.failed;
  check_counters_reconcile "permanent storm" srv ~offered:storm_cfg.Loadgen.count

(* ---- shared-pool dispatch ---- *)

module Route = Xsc_serve.Route
module Scratch = Xsc_serve.Scratch

let shared_cfg n =
  { Server.default_config with workers = 1; dispatch = Server.Shared n; capacity = 256 }

let shared_load =
  { Loadgen.seed = 61; count = 40; rate_hz = 5000.0; n = 24;
    kinds = [| Loadgen.Spd; Loadgen.General; Loadgen.Product |]; deadline_s = 5.0 }

(* Mixed payload kinds through the shared pool: SPD routes to a packed op
   DAG, general LU and GEMM to closure plans — every completion must be
   bitwise-identical to Route.direct on the same seeded instance, under
   whatever interleaving two pool workers produce. *)
let test_shared_dispatch_bitwise () =
  let srv = Server.start (shared_cfg 2) in
  let arrivals = Loadgen.schedule shared_load in
  let tickets =
    Array.map
      (fun a -> (a, Result.get_ok (Server.submit srv (Loadgen.payload_of shared_load a))))
      arrivals
  in
  Array.iter
    (fun (a, tk) ->
      match (Server.await srv tk).Request.outcome with
      | Ok sol ->
        Alcotest.(check bool) "bitwise vs routed oracle" true
          (Loadgen.solutions_bitwise_equal sol (Loadgen.reference_routed shared_load a))
      | Error e -> Alcotest.fail ("shared-dispatch request failed: " ^ Request.error_message e))
    tickets;
  Server.stop srv;
  check_counters_reconcile "shared dispatch" srv ~offered:shared_load.Loadgen.count

let test_shared_transient_storm () =
  let h =
    Harness.create { Harness.default with seed = 9; p_raise = 0.3; transient = true }
  in
  let srv = Server.start ~harness:h { (shared_cfg 2) with max_retries = 4 } in
  let arrivals = Loadgen.schedule shared_load in
  let tickets =
    Array.map
      (fun a -> (a, Result.get_ok (Server.submit srv (Loadgen.payload_of shared_load a))))
      arrivals
  in
  let retried = ref 0 in
  Array.iter
    (fun (a, tk) ->
      let c = Server.await srv tk in
      retried := !retried + c.Request.retries;
      match c.Request.outcome with
      | Ok sol ->
        Alcotest.(check bool) "replayed attempt still bitwise" true
          (Loadgen.solutions_bitwise_equal sol (Loadgen.reference_routed shared_load a))
      | Error e -> Alcotest.fail ("transient fault not retried: " ^ Request.error_message e))
    tickets;
  Server.stop srv;
  Alcotest.(check bool) "faults actually fired" true (Harness.raised h > 0);
  Alcotest.(check int) "one retry per injected raise" (Harness.raised h) !retried;
  check_counters_reconcile "shared transient storm" srv ~offered:shared_load.Loadgen.count

let test_shared_permanent_storm () =
  let h =
    Harness.create { Harness.default with seed = 9; p_raise = 0.3; transient = false }
  in
  let srv = Server.start ~harness:h { (shared_cfg 2) with max_retries = 2 } in
  let arrivals = Loadgen.schedule shared_load in
  let tickets =
    Array.map
      (fun a -> (a, Result.get_ok (Server.submit srv (Loadgen.payload_of shared_load a))))
      arrivals
  in
  let injected = ref 0 in
  Array.iteri
    (fun i (a, tk) ->
      let c = Server.await srv tk in
      if Harness.targets_key h i then begin
        incr injected;
        match c.Request.outcome with
        | Error (Request.Failed { attempts; _ }) ->
          Alcotest.(check int) "permanent fault exhausts retries" 3 attempts
        | Error e -> Alcotest.fail ("expected Failed, got " ^ Request.error_message e)
        | Ok _ -> Alcotest.fail "permanently injected request cannot succeed"
      end
      else
        match c.Request.outcome with
        | Ok sol ->
          Alcotest.(check bool) "untouched requests bitwise correct" true
            (Loadgen.solutions_bitwise_equal sol (Loadgen.reference_routed shared_load a))
        | Error e -> Alcotest.fail ("uninjected request failed: " ^ Request.error_message e))
    tickets;
  Server.stop srv;
  Alcotest.(check bool) "storm injected something" true (!injected > 0);
  check_counters_reconcile "shared permanent storm" srv ~offered:shared_load.Loadgen.count

let test_shared_isolates_singular () =
  (* a non-SPD matrix in flight with clean ones on the shared pool: the
     packed potrf raises Singular, aborting exactly that job *)
  let n = 8 in
  let rng = Rng.create 17 in
  let srv = Server.start (shared_cfg 2) in
  let good () =
    Result.get_ok
      (Server.submit srv (Request.Spd_solve (Mat.random_spd rng n, Vec.random rng n)))
  in
  let bad =
    Result.get_ok
      (Server.submit srv
         (Request.Spd_solve
            (Mat.init n n (fun i j -> if i = j then -1.0 else 0.0), Vec.random rng n)))
  in
  let g1 = good () and g2 = good () in
  let ok t =
    match (Server.await srv t).Request.outcome with Ok _ -> true | Error _ -> false
  in
  Alcotest.(check bool) "clean jobs survive" true (ok g1 && ok g2);
  (match (Server.await srv bad).Request.outcome with
  | Error (Request.Failed { attempts; error }) ->
    Alcotest.(check int) "deterministic failure not retried" 1 attempts;
    Alcotest.(check bool) "carries the kernel error" true (String.length error > 0)
  | Error e -> Alcotest.fail ("expected Failed, got " ^ Request.error_message e)
  | Ok _ -> Alcotest.fail "singular solve cannot succeed");
  Server.stop srv;
  check_counters_reconcile "shared singular" srv ~offered:3

let wait_for ~what ?(timeout_s = 5.0) f =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if f () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail ("timed out waiting for " ^ what)
    else begin
      Unix.sleepf 0.001;
      go ()
    end
  in
  go ()

(* Shared admission reads actual in-flight work (Pool.live_jobs plus
   requests travelling towards it), not the in-system count: a retry
   asleep in backoff holds no pool lane, so its window slot frees and a
   new request is admitted while it sleeps. Slot mode is the control —
   the same sleeping retry keeps the window full there. *)
let test_shared_admission_while_retry_sleeps () =
  let h =
    Harness.create { Harness.default with seed = 3; p_raise = 1.0; transient = true }
  in
  let cfg =
    { Server.default_config with workers = 1; dispatch = Server.Shared 2;
      capacity = 1; max_batch = 1; linger_s = 0.0; max_retries = 3;
      retry_backoff_s = 0.5 }
  in
  let srv = Server.start ~harness:h cfg in
  let rng = Rng.create 41 in
  let payload () = Request.Spd_solve (Mat.random_spd rng 6, Vec.random rng 6) in
  let t0 = Result.get_ok (Server.submit srv (payload ())) in
  (* p_raise 1.0 and transient: the first attempt raises, then backs off *)
  wait_for ~what:"first injected raise" (fun () -> Harness.raised h >= 1);
  wait_for ~what:"backoff frees the window" (fun () -> Server.occupancy srv = 0);
  let t1 =
    match Server.submit srv (payload ()) with
    | Ok t -> t
    | Error e ->
      Alcotest.fail ("rejected while the retry slept: " ^ Request.error_message e)
  in
  List.iter
    (fun t ->
      match (Server.await srv t).Request.outcome with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("request failed: " ^ Request.error_message e))
    [ t0; t1 ];
  Server.stop srv;
  check_counters_reconcile "shared sleeping retry" srv ~offered:2;
  (* control: Slot occupancy is the in-system count, so the identical
     sleeping retry keeps the window full and the second submit bounces *)
  let h2 =
    Harness.create { Harness.default with seed = 3; p_raise = 1.0; transient = true }
  in
  let srv2 = Server.start ~harness:h2 { cfg with dispatch = Server.Slot } in
  let t0 = Result.get_ok (Server.submit srv2 (payload ())) in
  wait_for ~what:"first injected raise (slot)" (fun () -> Harness.raised h2 >= 1);
  (match Server.submit srv2 (payload ()) with
  | Error (Request.Rejected Request.Queue_full) -> ()
  | Ok _ -> Alcotest.fail "Slot control admitted through a held window"
  | Error e -> Alcotest.fail ("expected Queue_full, got " ^ Request.error_message e));
  (match (Server.await srv2 t0).Request.outcome with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("slot request failed: " ^ Request.error_message e));
  Server.stop srv2;
  check_counters_reconcile "slot control" srv2 ~offered:2

(* Thousands of requests through the shared pool in closed-loop chunks:
   counters reconcile exactly, the span collector sheds nothing, and the
   submitting domain's allocation per chunk stays flat — a monotonic
   per-request growth (a leak in the staged-admission or span paths)
   would show as the later half allocating measurably more than the
   earlier half. *)
let test_shared_soak () =
  let total = 1600 and chunk = 200 in
  let srv =
    Server.start
      { Server.default_config with workers = 1; dispatch = Server.Shared 2;
        capacity = 256; max_batch = 8; linger_s = 0.0005 }
  in
  let rng = Rng.create 53 in
  let chunks = total / chunk in
  let per_chunk = Array.make chunks 0.0 in
  for c = 0 to chunks - 1 do
    let before = Xsc_obs.Gcstat.minor_words () in
    let tickets =
      Array.init chunk (fun _ ->
          Result.get_ok
            (Server.submit srv (Request.Spd_solve (Mat.random_spd rng 6, Vec.random rng 6))))
    in
    Array.iter
      (fun t ->
        match (Server.await srv t).Request.outcome with
        | Ok _ -> ()
        | Error e -> Alcotest.fail ("soak request failed: " ^ Request.error_message e))
      tickets;
    per_chunk.(c) <- Xsc_obs.Gcstat.minor_words () -. before
  done;
  Server.stop srv;
  check_counters_reconcile "soak" srv ~offered:total;
  let c = Server.counters srv in
  Alcotest.(check int) "all admitted" total c.Server.admitted;
  Alcotest.(check int) "all completed" total c.Server.completed;
  Alcotest.(check int) "zero span drops" 0 (Server.span_dropped srv);
  let sum a b = Array.fold_left ( +. ) 0.0 (Array.sub per_chunk a b) in
  let half = chunks / 2 in
  let first = sum 0 half and second = sum half (chunks - half) in
  Alcotest.(check bool)
    (Printf.sprintf "allocation flat across halves (%.0f vs %.0f words)" first second)
    true
    (second < first *. 1.5)

(* The isolation mix, scaled down: an open Poisson stream of small solves
   with a closed stream of larger ones refilled beside it by the same
   client loop, under both dispatch modes. The closed stream must finish
   work and refill while the open one is still being offered; each
   stream's lattice reconciles on its own, and every survivor of both is
   bitwise-equal to its dispatch mode's oracle. *)
let test_open_beside_closed () =
  let small =
    { Loadgen.default with seed = 5; count = 40; rate_hz = 400.0; n = 12; deadline_s = 5.0 }
  in
  let large = { Loadgen.default with seed = 7; count = 2; n = 64; deadline_s = 5.0 } in
  List.iter
    (fun (mode, dispatch, oracle) ->
      let srv = Server.start { (shared_cfg 1) with Server.dispatch } in
      let o, c =
        match
          Loadgen.run srv
            [
              { Loadgen.load = small; loop = Loadgen.Open };
              { Loadgen.load = large; loop = Loadgen.Closed 1 };
            ]
        with
        | [ o; c ] -> (o, c)
        | _ -> Alcotest.fail "two streams, two results"
      in
      Server.stop srv;
      let ro = o.Loadgen.report and rc = c.Loadgen.report in
      Alcotest.(check int) (mode ^ ": open stream offers its count") small.Loadgen.count
        ro.Loadgen.offered;
      Alcotest.(check bool)
        (Printf.sprintf "%s: closed stream refilled during the open phase (offered %d)" mode
           rc.Loadgen.offered)
        true (rc.Loadgen.offered >= 2);
      Alcotest.(check bool) (mode ^ ": closed stream completed work") true
        (rc.Loadgen.completed >= 1);
      List.iter
        (fun (what, (r : Loadgen.report)) ->
          Alcotest.(check int) (what ^ ": offered = admitted + rejected") r.Loadgen.offered
            (r.Loadgen.admitted + r.Loadgen.rejected);
          Alcotest.(check int) (what ^ ": admitted = completed + failed") r.Loadgen.admitted
            (r.Loadgen.completed + r.Loadgen.failed))
        [ (mode ^ " open", ro); (mode ^ " closed", rc) ];
      List.iter
        (fun (cfg, (res : Loadgen.result)) ->
          Alcotest.(check int) "one pair per admitted request" res.Loadgen.report.Loadgen.admitted
            (List.length res.Loadgen.pairs);
          List.iter
            (fun (a, (comp : Request.completion)) ->
              match comp.Request.outcome with
              | Ok sol ->
                Alcotest.(check bool) (mode ^ ": survivor bitwise vs its oracle") true
                  (Loadgen.solutions_bitwise_equal sol (oracle cfg a))
              | Error e -> Alcotest.fail ("fault-free request failed: " ^ Request.error_message e))
            res.Loadgen.pairs)
        [ (small, o); (large, c) ];
      check_counters_reconcile (mode ^ " open beside closed") srv
        ~offered:(ro.Loadgen.offered + rc.Loadgen.offered))
    [
      ("shared", Server.Shared 1, fun cfg a -> Loadgen.reference_routed cfg a);
      ("slot", Server.Slot, Loadgen.reference);
    ]

(* ---- sparse request classes ---- *)

module Stencil = Xsc_sparse.Stencil
module Csr = Xsc_sparse.Csr

(* Both bandwidth-bound kinds over an 8^3 operator: small enough that a
   CG solve is a handful of chunks, big enough that the chain actually
   chunks (cg_max_iter 240 over 32-iteration chunks). *)
let sparse_load =
  { Loadgen.seed = 67; count = 24; rate_hz = 5000.0; n = 8;
    kinds = [| Loadgen.Cg; Loadgen.Mg |]; deadline_s = 10.0 }

(* The tentpole oracle: a chunked solver chain on the shared pool resumes
   the same stepper the sequential solve drives, so every survivor is
   bitwise-identical to Route.direct on the same seeded instance — not
   merely close. *)
let test_sparse_serves_bitwise () =
  let srv = Server.start (shared_cfg 2) in
  let arrivals = Loadgen.schedule sparse_load in
  let tickets =
    Array.map
      (fun a -> (a, Result.get_ok (Server.submit srv (Loadgen.payload_of sparse_load a))))
      arrivals
  in
  Array.iter
    (fun (a, tk) ->
      match (Server.await srv tk).Request.outcome with
      | Ok sol ->
        Alcotest.(check bool) "chunked chain bitwise vs sequential solve" true
          (Loadgen.solutions_bitwise_equal sol (Loadgen.reference_routed sparse_load a))
      | Error e -> Alcotest.fail ("sparse request failed: " ^ Request.error_message e))
    tickets;
  Server.stop srv;
  check_counters_reconcile "sparse serve" srv ~offered:sparse_load.Loadgen.count

(* Non-convergence is a typed, deterministic failure: a budget the
   iteration cannot meet fails once (no retry — replaying the same chain
   reproduces the same residual) and never returns a silent wrong answer. *)
let test_sparse_non_convergence_typed () =
  let srv = Server.start { (shared_cfg 2) with Server.max_retries = 3 } in
  let rng = Rng.create 5 in
  let a = Stencil.poisson_3d 6 in
  let b = Vec.random rng a.Csr.rows in
  let check_fails what tk =
    match (Server.await srv tk).Request.outcome with
    | Error (Request.Failed { attempts; error }) ->
      Alcotest.(check int) (what ^ " fails deterministically, no retry") 1 attempts;
      Alcotest.(check bool) (what ^ " names the residual miss") true
        (String.length error > 0)
    | Error e -> Alcotest.fail ("expected Failed, got " ^ Request.error_message e)
    | Ok _ -> Alcotest.fail (what ^ ": an impossible tolerance cannot be met")
  in
  let t_cg =
    Result.get_ok
      (Server.submit srv (Request.Cg_solve { a; b; tol = 1e-12; max_iter = 2 }))
  in
  let t_mg =
    Result.get_ok
      (Server.submit srv
         (Request.Mg_solve { grid = 6; levels = 2; b; tol = 1e-14; max_cycles = 1 }))
  in
  check_fails "cg" t_cg;
  check_fails "mg" t_mg;
  Server.stop srv;
  check_counters_reconcile "non-convergence" srv ~offered:2

let test_sparse_validation () =
  let srv = Server.start (shared_cfg 1) in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let b = Array.make 343 1.0 in
      Alcotest.check_raises "odd multigrid grid rejected at submit"
        (Invalid_argument "Request.mg: grid must be even (coarsening)")
        (fun () ->
          ignore
            (Server.submit srv
               (Request.Mg_solve { grid = 7; levels = 2; b; tol = 1e-8; max_cycles = 4 })));
      let a = Stencil.poisson_3d 4 in
      Alcotest.check_raises "rhs length mismatch rejected at submit"
        (Invalid_argument "Request.cg: rhs length mismatch")
        (fun () ->
          ignore
            (Server.submit srv
               (Request.Cg_solve { a; b = Array.make 3 1.0; tol = 1e-8; max_iter = 10 }))))

(* Class-aware dispatch: with cap 1 on "cg", at most one cg batch is ever
   live in the pool no matter how many are queued, the held-back claims
   are counted, and everything still completes. *)
let test_sparse_class_cap () =
  let srv =
    Server.start
      { (shared_cfg 2) with Server.class_caps = [ ("cg", 1) ];
        max_batch = 1; linger_s = 0.0 }
  in
  let rng = Rng.create 7 in
  let a = Stencil.poisson_3d 8 in
  let mk () =
    Request.Cg_solve { a; b = Vec.random rng a.Csr.rows; tol = 1e-8; max_iter = 240 }
  in
  let tickets =
    List.init 6 (fun _ -> Result.get_ok (Server.submit srv (mk ())))
  in
  let over = ref 0 in
  let pending = ref tickets in
  while !pending <> [] do
    let live = Server.class_live srv "cg" in
    if live > 1 then incr over;
    pending := List.filter (fun t -> Server.poll srv t = None) !pending;
    Unix.sleepf 0.0002
  done;
  List.iter
    (fun t ->
      match (Server.await srv t).Request.outcome with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("capped request failed: " ^ Request.error_message e))
    tickets;
  Server.stop srv;
  Alcotest.(check int) "cap never exceeded" 0 !over;
  Alcotest.(check int) "uncapped kind reads zero" 0 (Server.class_live srv "spd");
  let c = Server.counters srv in
  Alcotest.(check bool) "held-back batches counted" true (c.Server.cap_deferred > 0);
  (* max_batch = 1: six capped batches, and each deferred one counts once
     however many pump passes it waits through *)
  Alcotest.(check int) "six capped batches" 6 c.Server.batches;
  Alcotest.(check bool)
    (Printf.sprintf "cap_deferred %d <= capped batches" c.Server.cap_deferred)
    true
    (c.Server.cap_deferred <= c.Server.batches);
  check_counters_reconcile "class cap" srv ~offered:6

(* Two open streams merged by the one client loop and reported per class;
   each class's lattice must reconcile on its own, the server's totals
   must be the class-wise sums, and the survivors must match their own
   oracles. *)
let test_streams_reconcile_per_class () =
  let srv =
    Server.start { (shared_cfg 2) with Server.class_caps = [ ("cg", 1) ] }
  in
  let dense =
    { Loadgen.default with seed = 5; count = 20; rate_hz = 2000.0; n = 12 }
  in
  let sparse =
    { Loadgen.seed = 67; count = 10; rate_hz = 1000.0; n = 8;
      kinds = [| Loadgen.Cg |]; deadline_s = 10.0 }
  in
  let d, sp =
    match
      Loadgen.run srv
        [
          { Loadgen.load = dense; loop = Loadgen.Open };
          { Loadgen.load = sparse; loop = Loadgen.Open };
        ]
    with
    | [ d; sp ] -> (d, sp)
    | _ -> Alcotest.fail "two streams, two results"
  in
  Server.stop srv;
  let class_ok what (r : Loadgen.report) ~count =
    Alcotest.(check int) (what ^ ": offered all") count r.Loadgen.offered;
    Alcotest.(check int)
      (what ^ ": offered = admitted + rejected")
      r.Loadgen.offered
      (r.Loadgen.admitted + r.Loadgen.rejected);
    Alcotest.(check int)
      (what ^ ": admitted = completed + failed")
      r.Loadgen.admitted
      (r.Loadgen.completed + r.Loadgen.failed)
  in
  class_ok "dense" d.Loadgen.report ~count:dense.Loadgen.count;
  class_ok "sparse" sp.Loadgen.report ~count:sparse.Loadgen.count;
  let c = Server.counters srv in
  let sum f = f d.Loadgen.report + f sp.Loadgen.report in
  Alcotest.(check int) "server admitted = class sum" c.Server.admitted
    (sum (fun r -> r.Loadgen.admitted));
  Alcotest.(check int) "server rejected = class sum" c.Server.rejected
    (sum (fun r -> r.Loadgen.rejected));
  Alcotest.(check int) "server completed = class sum" c.Server.completed
    (sum (fun r -> r.Loadgen.completed));
  Alcotest.(check int) "server failed = class sum" c.Server.failed
    (sum (fun r -> r.Loadgen.failed));
  let bitwise cfg pairs =
    List.for_all
      (fun (a, (c : Request.completion)) ->
        match c.Request.outcome with
        | Ok sol ->
          Loadgen.solutions_bitwise_equal sol (Loadgen.reference_routed cfg a)
        | Error _ -> false)
      pairs
  in
  Alcotest.(check bool) "dense survivors bitwise" true
    (bitwise dense d.Loadgen.pairs);
  Alcotest.(check bool) "sparse survivors bitwise" true
    (bitwise sparse sp.Loadgen.pairs);
  (* every capped batch holds at least one of the sparse requests *)
  let deferred = c.Server.cap_deferred in
  Alcotest.(check bool)
    (Printf.sprintf "cap_deferred %d <= sparse requests" deferred)
    true
    (deferred <= sparse.Loadgen.count);
  check_counters_reconcile "two streams" srv
    ~offered:(dense.Loadgen.count + sparse.Loadgen.count)

(* ---- sparse fault storms (CG / GMRES / MG) ---- *)

(* Transient corruption mid-solve: every injected raise is retried and the
   replayed chain converges to the same bits — never a silent wrong
   answer. *)
let test_sparse_transient_storm () =
  let h =
    Harness.create { Harness.default with seed = 9; p_raise = 0.3; transient = true }
  in
  let srv = Server.start ~harness:h { (shared_cfg 2) with Server.max_retries = 4 } in
  let arrivals = Loadgen.schedule sparse_load in
  let tickets =
    Array.map
      (fun a -> (a, Result.get_ok (Server.submit srv (Loadgen.payload_of sparse_load a))))
      arrivals
  in
  let retried = ref 0 in
  Array.iter
    (fun (a, tk) ->
      let c = Server.await srv tk in
      retried := !retried + c.Request.retries;
      match c.Request.outcome with
      | Ok sol ->
        Alcotest.(check bool) "replayed solve still bitwise" true
          (Loadgen.solutions_bitwise_equal sol (Loadgen.reference_routed sparse_load a))
      | Error e ->
        Alcotest.fail ("transient sparse fault not retried: " ^ Request.error_message e))
    tickets;
  Server.stop srv;
  Alcotest.(check bool) "faults actually fired" true (Harness.raised h > 0);
  Alcotest.(check int) "one retry per injected raise" (Harness.raised h) !retried;
  check_counters_reconcile "sparse transient storm" srv
    ~offered:sparse_load.Loadgen.count

let test_sparse_permanent_storm () =
  let h =
    Harness.create { Harness.default with seed = 9; p_raise = 0.3; transient = false }
  in
  let srv = Server.start ~harness:h { (shared_cfg 2) with Server.max_retries = 2 } in
  let arrivals = Loadgen.schedule sparse_load in
  let tickets =
    Array.map
      (fun a -> (a, Result.get_ok (Server.submit srv (Loadgen.payload_of sparse_load a))))
      arrivals
  in
  let injected = ref 0 in
  Array.iteri
    (fun i (a, tk) ->
      let c = Server.await srv tk in
      if Harness.targets_key h i then begin
        incr injected;
        match c.Request.outcome with
        | Error (Request.Failed { attempts; _ }) ->
          Alcotest.(check int) "permanent fault exhausts retries" 3 attempts
        | Error e -> Alcotest.fail ("expected Failed, got " ^ Request.error_message e)
        | Ok _ -> Alcotest.fail "permanently injected solve cannot succeed"
      end
      else
        match c.Request.outcome with
        | Ok sol ->
          Alcotest.(check bool) "untouched solves bitwise correct" true
            (Loadgen.solutions_bitwise_equal sol (Loadgen.reference_routed sparse_load a))
        | Error e ->
          Alcotest.fail ("uninjected solve failed: " ^ Request.error_message e))
    tickets;
  Server.stop srv;
  Alcotest.(check bool) "storm injected something" true (!injected > 0);
  check_counters_reconcile "sparse permanent storm" srv
    ~offered:sparse_load.Loadgen.count

(* GMRES has no serving class yet, so its storm runs at the solver level:
   a transiently injected attempt raises, the bare retry reproduces the
   clean solve bit for bit — same discipline, one layer down. *)
let test_gmres_storm_retries_bitwise () =
  let rng = Rng.create 83 in
  let a = Stencil.convection_diffusion_2d 12 in
  let b = Vec.random rng a.Csr.rows in
  let clean = Xsc_sparse.Gmres.solve ~tol:1e-10 a b in
  Alcotest.(check bool) "clean gmres converges" true clean.Xsc_sparse.Gmres.converged;
  let h =
    Harness.create { Harness.default with seed = 5; p_raise = 1.0; transient = true }
  in
  let attempt () = Xsc_sparse.Gmres.solve ~tol:1e-10 a b in
  let rec with_retries budget =
    try Harness.wrap_thunk h ~key:0 attempt
    with Harness.Injected _ when budget > 0 -> with_retries (budget - 1)
  in
  let r = with_retries 3 in
  Alcotest.(check bool) "faults actually fired" true (Harness.raised h > 0);
  Alcotest.(check bool) "retried gmres bitwise vs clean" true
    (Loadgen.solutions_bitwise_equal (Request.Vector r.Xsc_sparse.Gmres.x)
       (Request.Vector clean.Xsc_sparse.Gmres.x))

(* ---- routing and scratch satellites ---- *)

let test_route_direct_vs_lapack () =
  (* Route.direct and the strided Lapack path are different kernel
     sequences over the same problem: equal to rounding, not bitwise *)
  let rng = Rng.create 71 in
  let n = 24 in
  let a = Mat.random_spd rng n and b = Vec.random rng n in
  let x_direct =
    match Route.direct (Request.Spd_solve (a, b)) with
    | Request.Vector x -> x
    | Request.Matrix _ -> Alcotest.fail "spd solve yields a vector"
  in
  let x_ref = Lapack.chol_solve (Mat.copy a) (Array.copy b) in
  Alcotest.(check bool) "solutions agree to rounding" true
    (Vec.dist_inf x_direct x_ref <= 1e-8 *. Vec.norm_inf x_ref);
  Alcotest.(check bool) "dd predicate accepts dominant" true
    (Xsc_core.Lu.strictly_diag_dominant (Mat.random_diag_dominant rng n));
  Alcotest.(check bool) "dd predicate rejects all-ones" false
    (Xsc_core.Lu.strictly_diag_dominant (Mat.init n n (fun _ _ -> 1.0)))

let test_scratch_reuse () =
  let h0 = Scratch.hits () in
  let a = Scratch.acquire_packed ~n:32 ~nb:16 in
  Scratch.release_packed a;
  let b = Scratch.acquire_packed ~n:32 ~nb:16 in
  Alcotest.(check bool) "same packed buffer back" true (a == b);
  Alcotest.(check bool) "hit counted" true (Scratch.hits () > h0);
  Scratch.release_packed b;
  let v = Scratch.acquire_vec 33 in
  Scratch.release_vec v;
  Alcotest.(check bool) "vector reused" true (Scratch.acquire_vec 33 == v)

(* A buffer packed on one lane and released by a completion on another
   returns to the one shared list, and outlives the domain that released
   it (pool domains exit at every Server.stop). *)
let test_scratch_crosses_domains () =
  let a = Scratch.acquire_packed ~n:48 ~nb:16 in
  Domain.join (Domain.spawn (fun () -> Scratch.release_packed a));
  Alcotest.(check bool) "released elsewhere, reused here" true
    (Scratch.acquire_packed ~n:48 ~nb:16 == a);
  Scratch.release_packed a

(* Steady-state serving recycles its buffers: a closed loop of n=48 solves
   takes more buffers from the pools than it allocates fresh. A closed
   stream on its own offers exactly its count. *)
let test_scratch_reuse_serving () =
  let h0 = Scratch.hits () and m0 = Scratch.misses () in
  let srv = Server.start (shared_cfg 1) in
  let load = { Loadgen.default with seed = 53; count = 40; n = 48; deadline_s = 5.0 } in
  let r =
    match Loadgen.run srv [ { Loadgen.load; loop = Loadgen.Closed 4 } ] with
    | [ r ] -> r.Loadgen.report
    | _ -> Alcotest.fail "one stream, one result"
  in
  Server.stop srv;
  Alcotest.(check int) "closed stream offers exactly its count" 40 r.Loadgen.offered;
  Alcotest.(check int) "all served" 40 r.Loadgen.completed;
  let hits = Scratch.hits () - h0 and misses = Scratch.misses () - m0 in
  Alcotest.(check bool)
    (Printf.sprintf "scratch hits %d > misses %d" hits misses)
    true (hits > misses)

(* A routed tiled solve is the sequential packed solve: its DAG (pack,
   factorization, per-block forward and backward sweeps) run on a 2-lane
   pool gives, bit for bit, what PD.potrf+potrs (getrf_nopiv+getrs_nopiv)
   give on the same padded operand, and what Route.direct gives. Sizes
   include non-multiples of nb, so the identity pad is exercised. *)
module PD = Xsc_tile.Packed.D
module Pool = Xsc_runtime.Pool

let sequential_packed_solve ~nb ~spd a b =
  let n = a.Mat.rows in
  let padded = (n + nb - 1) / nb * nb in
  let p = PD.create ~n:padded ~nb in
  PD.pack_padded p a;
  let y = Array.make padded 0.0 in
  Array.blit b 0 y 0 n;
  if spd then (PD.potrf p; PD.potrs p y) else (PD.getrf_nopiv p; PD.getrs_nopiv p y);
  Request.Vector (Array.sub y 0 n)

let prop_routed_solve_order =
  QCheck.Test.make ~name:"routed tiled solve = sequential packed solve = Route.direct"
    ~count:40
    QCheck.(quad bool (int_range 1 200) (int_range 0 4) (int_range 0 9999))
    (fun (spd, n, nbi, seed) ->
      let nb = [| 4; 8; 16; 32; 64 |].(nbi) in
      let rng = Rng.create seed in
      let a = if spd then Mat.random_spd rng n else Mat.random_diag_dominant rng n in
      let b = Vec.random rng n in
      let payload = if spd then Request.Spd_solve (a, b) else Request.Lu_solve (a, b) in
      let plan = Route.plan ~nb ~key:seed payload in
      if not plan.Route.tiled then QCheck.Test.fail_report "payload not routed to a tiled plan";
      ignore (Pool.run_once ?interp:plan.Route.interp ~workers:2 plan.Route.dag);
      let routed = plan.Route.finish () in
      Loadgen.solutions_bitwise_equal routed (sequential_packed_solve ~nb ~spd a b)
      && Loadgen.solutions_bitwise_equal routed (Route.direct ~nb payload))

(* Same-shape requests share one cached DAG but never a buffer. Concurrent
   pairs with different matrices all come back bitwise. At most two
   attempts are live at once and the pool starts with two buffer pairs of
   the class, so a transient storm allocates nothing when each failed
   attempt's cleanup returns the buffer and vector its pack acquired; a
   further same-shape batch allocates nothing either. *)
let test_shared_template_private_state () =
  let rng = Rng.create 97 in
  (* n=130 pads to 192 at an nb of 64: three tile rows, so every sweep is a
     real multi-block task *)
  let n = 130 and nb = Xsc_tile.Packed.tuned_nb ~fallback:64 in
  let padded = (n + nb - 1) / nb * nb in
  let payloads =
    Array.init 24 (fun _ -> Request.Spd_solve (Mat.random_spd rng n, Vec.random rng n))
  in
  let oracles = Array.map Route.direct payloads in
  let serve_pairs srv lo hi =
    let retried = ref 0 in
    for pair = lo / 2 to (hi / 2) - 1 do
      let tks =
        List.map
          (fun k -> (k, Result.get_ok (Server.submit srv payloads.(k))))
          [ 2 * pair; (2 * pair) + 1 ]
      in
      List.iter
        (fun (k, tk) ->
          let c = Server.await srv tk in
          retried := !retried + c.Request.retries;
          match c.Request.outcome with
          | Ok sol ->
            Alcotest.(check bool)
              (Printf.sprintf "request %d bitwise vs Route.direct" k)
              true
              (Loadgen.solutions_bitwise_equal sol oracles.(k))
          | Error e -> Alcotest.fail ("request failed: " ^ Request.error_message e))
        tks
    done;
    !retried
  in
  let warm =
    List.init 2 (fun _ -> (Scratch.acquire_packed ~n:padded ~nb, Scratch.acquire_vec padded))
  in
  List.iter
    (fun (p, v) ->
      Scratch.release_packed p;
      Scratch.release_vec v)
    warm;
  let h = Harness.create { Harness.default with seed = 9; p_raise = 0.5; transient = true } in
  let srv = Server.start ~harness:h { (shared_cfg 2) with max_retries = 4 } in
  let m0 = Scratch.misses () in
  let retried = serve_pairs srv 0 16 in
  let m1 = Scratch.misses () in
  Server.stop srv;
  Alcotest.(check bool)
    (Printf.sprintf "faults actually fired (%d)" (Harness.raised h))
    true
    (Harness.raised h > 1);
  Alcotest.(check int) "one retry per injected raise" (Harness.raised h) retried;
  Alcotest.(check int) "no scratch misses through the storm" 0 (m1 - m0);
  let srv = Server.start (shared_cfg 2) in
  ignore (serve_pairs srv 16 24);
  Server.stop srv;
  Alcotest.(check int) "no new scratch misses after the storm" 0 (Scratch.misses () - m1)

(* ---- batched results satellite ---- *)

let test_batched_results_isolation () =
  let rng = Rng.create 41 in
  let n = 6 in
  let batch =
    Array.init 5 (fun i ->
        if i = 2 then Mat.init n n (fun r c -> if r = c then -1.0 else 0.0)
        else Mat.random_spd rng n)
  in
  let results =
    Xsc_core.Batched.run_batch_results (Array.map (fun m () -> Lapack.potrf m) batch)
  in
  Array.iteri
    (fun i r ->
      match (i, r) with
      | 2, Error (Lapack.Singular _) -> ()
      | 2, _ -> Alcotest.fail "slot 2 must fail Singular"
      | _, Ok () -> ()
      | _, Error _ -> Alcotest.fail (Printf.sprintf "slot %d poisoned by slot 2" i))
    results;
  (* raising wrapper still raises *)
  let batch2 =
    Array.init 3 (fun i ->
        if i = 1 then Mat.init n n (fun r c -> if r = c then -1.0 else 0.0)
        else Mat.random_spd rng n)
  in
  Alcotest.check_raises "raising wrapper keeps contract" (Lapack.Singular 0)
    (fun () ->
      try Xsc_core.Batched.potrf_batch batch2
      with Lapack.Singular _ -> raise (Lapack.Singular 0))

let test_harness_thunk_determinism () =
  let p = { Harness.default with seed = 5; p_raise = 0.4; transient = false } in
  let h1 = Harness.create p and h2 = Harness.create p in
  for key = 0 to 199 do
    Alcotest.(check bool)
      (Printf.sprintf "key %d decision reproducible" key)
      (Harness.targets_key h1 key) (Harness.targets_key h2 key)
  done;
  let hits = ref 0 in
  for key = 0 to 199 do
    if Harness.targets_key h1 key then incr hits
  done;
  Alcotest.(check bool) "rate in a plausible band" true (!hits > 40 && !hits < 120);
  (* transient: first call raises, second runs clean *)
  let ht = Harness.create { p with transient = true } in
  let key = ref 0 in
  while not (Harness.targets_key ht !key) do
    incr key
  done;
  Alcotest.check_raises "first attempt raises"
    (Harness.Injected (Printf.sprintf "req(%d)" !key))
    (fun () -> Harness.wrap_thunk ht ~key:!key (fun () -> ()));
  Alcotest.(check int) "retry runs clean" 7
    (Harness.wrap_thunk ht ~key:!key (fun () -> 7))

(* ---- causal spans through the server ---- *)

(* The span-propagation contract: a request's id survives batcher
   coalescing, EDF reordering and transient re-execution, and each
   execution attempt appears exactly once in the span records. A transient
   storm exercises all three at once (mixed classes coalesce, retries
   reorder completions). *)
let test_server_span_chains () =
  let h =
    Harness.create { Harness.default with seed = 9; p_raise = 0.3; transient = true }
  in
  let srv =
    Server.start ~harness:h
      { Server.default_config with workers = 2; capacity = 128; max_retries = 3 }
  in
  let arrivals = Loadgen.schedule storm_cfg in
  let tickets =
    Array.map
      (fun a -> Result.get_ok (Server.submit srv (Loadgen.payload_of storm_cfg a)))
      arrivals
  in
  let completions = Array.map (Server.await srv) tickets in
  Server.stop srv;
  Alcotest.(check bool) "retries actually happened" true (Harness.raised h > 0);
  Alcotest.(check int) "no span shed" 0 (Server.span_dropped srv);
  let by_key = Hashtbl.create 256 in
  List.iter
    (fun s -> Hashtbl.add by_key (s.Span.request, s.Span.phase) s)
    (Server.span_records srv);
  Array.iteri
    (fun i c ->
      let roots = Hashtbl.find_all by_key (i, "request") in
      Alcotest.(check int) "exactly one root per request" 1 (List.length roots);
      let root = List.hd roots in
      Alcotest.(check int) "one wait span" 1
        (List.length (Hashtbl.find_all by_key (i, "wait")));
      let atts = Hashtbl.find_all by_key (i, "attempt") in
      Alcotest.(check int) "one span per attempt" (c.Request.retries + 1)
        (List.length atts);
      let attempt_nos = List.sort_uniq compare (List.map (fun s -> s.Span.attempt) atts) in
      Alcotest.(check (list int)) "each attempt exactly once"
        (List.init (c.Request.retries + 1) Fun.id)
        attempt_nos;
      List.iter
        (fun s ->
          Alcotest.(check int) "attempts parent on the root" root.Span.span s.Span.parent)
        atts)
    completions

let test_server_spans_off () =
  let srv =
    Server.start { Server.default_config with workers = 1; spans = false }
  in
  let r = serve_open srv { storm_cfg with Loadgen.count = 8 } in
  Server.stop srv;
  Alcotest.(check int) "all served" 8 r.Loadgen.completed;
  Alcotest.(check int) "no span records kept" 0
    (List.length (Server.span_records srv))

let test_server_span_chrome_lanes () =
  let srv = Server.start { Server.default_config with workers = 2 } in
  let count = 12 in
  let r = serve_open srv { storm_cfg with Loadgen.count } in
  Server.stop srv;
  Alcotest.(check int) "all served" count r.Loadgen.completed;
  match Json.parse (Server.span_chrome_json srv) with
  | Json.List items ->
    Alcotest.(check bool) "events present" true (items <> []);
    let lanes = Hashtbl.create 16 in
    List.iter
      (fun it ->
        (match Json.member "pid" it with
        | Some (Json.Num 1.0) -> ()
        | _ -> Alcotest.fail "span event off pid 1");
        match (Json.member "ph" it, Json.member "tid" it) with
        | Some (Json.Str "X"), Some (Json.Num tid) ->
          Hashtbl.replace lanes (int_of_float tid) ()
        | _ -> ())
      items;
    (* one contiguous lane per request: every request id is a tid *)
    for i = 0 to count - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "request %d has a lane" i)
        true (Hashtbl.mem lanes i)
    done
  | _ -> Alcotest.fail "span trace is not a JSON array"
  | exception Failure m -> Alcotest.failf "span trace unparseable: %s" m

(* A request's whole chain as its server recorded it: one root, one
   wait, one attempt per execution, and task records under every attempt. *)
let check_chain name srv id (c : Request.completion) =
  let mine = List.filter (fun (r : Span.record) -> r.request = id) (Server.span_records srv) in
  let phase p = List.filter (fun (r : Span.record) -> r.phase = p) mine in
  Alcotest.(check int) (name ^ ": one root") 1 (List.length (phase "request"));
  Alcotest.(check int) (name ^ ": one wait") 1 (List.length (phase "wait"));
  let atts = phase "attempt" in
  Alcotest.(check int) (name ^ ": one span per attempt") (c.Request.retries + 1)
    (List.length atts);
  List.iter
    (fun (a : Span.record) ->
      Alcotest.(check bool) (name ^ ": attempt has task records") true
        (List.exists (fun (t : Span.record) -> t.parent = a.span) (phase "task")))
    atts

(* Each request context names its own server's collector: a second
   spans-on server started later must not capture the first one's
   executor task spans. *)
let test_server_spans_two_servers () =
  let rng = Rng.create 61 in
  let a = Server.start { Server.default_config with workers = 2 } in
  let b = Server.start { Server.default_config with workers = 2 } in
  Fun.protect
    ~finally:(fun () ->
      Server.stop a;
      Server.stop b)
    (fun () ->
      let tickets =
        Array.init 16 (fun _ ->
            Result.get_ok
              (Server.submit a (Request.Spd_solve (Mat.random_spd rng 24, Vec.random rng 24))))
      in
      Array.iteri (fun i tk -> check_chain "server A" a i (Server.await a tk)) tickets);
  Alcotest.(check int) "server B holds none of A's records" 0
    (List.length (Server.span_records b))

(* A spans-on server keeps tracing past its collector's capacity: the
   ring overwrites its oldest records, so the newest request's whole
   chain is always present. Tiny requests, served in closed-loop chunks
   until the default collector has overwritten records. *)
let test_server_spans_past_capacity () =
  let rng = Rng.create 67 in
  let srv = Server.start { Server.default_config with workers = 1; capacity = 512 } in
  let tiny () = Request.Spd_solve (Mat.random_spd rng 4, Vec.random rng 4) in
  let served = ref 0 in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      while Server.span_dropped srv = 0 && !served < 100_000 do
        let tickets = Array.init 128 (fun _ -> Result.get_ok (Server.submit srv (tiny ()))) in
        Array.iter (fun tk -> ignore (Server.await srv tk)) tickets;
        served := !served + 128
      done;
      Alcotest.(check bool) "collector overwrote records" true (Server.span_dropped srv > 0);
      let tk = Result.get_ok (Server.submit srv (tiny ())) in
      check_chain "newest request" srv !served (Server.await srv tk))

(* ---- SLO monitors ---- *)

let test_slo_burn_rate () =
  let t = Slo.create [ { Slo.kind = "*"; latency_s = 0.1; error_budget = 0.25 } ] in
  let feed ~id ~latency_s ~failed =
    Slo.observe t ~kind:"spd" ~id ~latency_s ~failed
  in
  (* 3 clean observations: no violations, no breach *)
  for i = 0 to 2 do
    Alcotest.(check bool) "clean obs never breaches" false
      (feed ~id:i ~latency_s:0.01 ~failed:false)
  done;
  (* one slow request among four: exactly at budget, not over *)
  Alcotest.(check bool) "at budget is not a breach" false
    (feed ~id:3 ~latency_s:0.5 ~failed:false);
  (* a failure pushes past the budget: the breach edge fires once *)
  Alcotest.(check bool) "over budget breaches" true
    (feed ~id:4 ~latency_s:0.01 ~failed:true);
  Alcotest.(check bool) "already in breach: edge only fires once" false
    (feed ~id:5 ~latency_s:0.5 ~failed:false);
  Alcotest.(check bool) "breached latches" true (Slo.breached t);
  match Slo.reports t with
  | [ rep ] ->
    Alcotest.(check int) "totals" 6 rep.Slo.total;
    Alcotest.(check int) "violations" 3 rep.Slo.violations;
    Alcotest.(check int) "breach entries" 1 rep.Slo.breaches;
    Alcotest.(check bool) "burn rate over 1" true (rep.Slo.burn_rate > 1.0);
    Alcotest.(check bool) "worst offenders named" true
      (List.mem_assoc 3 rep.Slo.worst || List.mem_assoc 5 rep.Slo.worst);
    (* the printed serve.slo record parses back *)
    (match Json.parse (Json.to_string (Slo.report_json t)) with
    | Json.Obj fields ->
      Alcotest.(check bool) "breached in record" true
        (List.assoc_opt "breached" fields = Some (Json.Bool true))
    | _ -> Alcotest.fail "report_json is not an object")
  | reps -> Alcotest.failf "expected one class report, got %d" (List.length reps)

let test_slo_validation () =
  Alcotest.check_raises "budget over 1"
    (Invalid_argument "Slo.create: error_budget must be in (0,1]") (fun () ->
      ignore (Slo.create [ { Slo.kind = "*"; latency_s = 0.1; error_budget = 1.5 } ]));
  Alcotest.check_raises "non-positive latency"
    (Invalid_argument "Slo.create: latency_s must be positive") (fun () ->
      ignore (Slo.create [ { Slo.kind = "*"; latency_s = 0.0; error_budget = 0.1 } ]))

(* ---- flight recorder through the server ---- *)

(* A permanent storm with the recorder armed: the dump must CRC-verify
   back through Flight.read and hold the failing request's whole causal
   chain — root, every exhausted attempt, and the per-attempt inject
   markers noted by the harness under the attempts' ambient context. *)
let test_server_flight_dump_on_permanent_failure () =
  let path = Filename.temp_file "xsc_serve_flight" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Flight.reset_dump_guard ();
      let h =
        Harness.create { Harness.default with seed = 9; p_raise = 0.3; transient = false }
      in
      let max_retries = 2 in
      let srv =
        Server.start ~harness:h
          { Server.default_config with
            workers = 2;
            capacity = 128;
            max_retries;
            slos = [ { Slo.kind = "*"; latency_s = 5.0; error_budget = 0.01 } ];
            flight_path = Some path;
          }
      in
      let arrivals = Loadgen.schedule storm_cfg in
      let tickets =
        Array.map
          (fun a -> Result.get_ok (Server.submit srv (Loadgen.payload_of storm_cfg a)))
          arrivals
      in
      let completions = Array.map (Server.await srv) tickets in
      Server.stop srv;
      let failing =
        Array.to_list completions
        |> List.mapi (fun i c -> (i, c))
        |> List.filter_map (fun (i, c) ->
               match c.Request.outcome with
               | Error (Request.Failed _) -> Some i
               | _ -> None)
      in
      Alcotest.(check bool) "storm produced failures" true (failing <> []);
      Alcotest.(check bool) "typed failures breach the tight budget" true
        (Server.slo_breached srv);
      match Flight.read path with
      | Error e -> Alcotest.failf "flight read: %s" (Checkpoint.describe_error e)
      | Ok d ->
        Alcotest.(check bool) "dump names a failure" true
          (d.Flight.reason <> "" && d.Flight.records <> []);
        List.iter
          (fun id ->
            let mine = List.filter (fun (r : Span.record) -> r.request = id) d.Flight.records in
            let count phase =
              List.length (List.filter (fun (r : Span.record) -> r.phase = phase) mine)
            in
            Alcotest.(check int)
              (Printf.sprintf "request %d root in dump" id)
              1 (count "request");
            Alcotest.(check int)
              (Printf.sprintf "request %d attempts in dump" id)
              (max_retries + 1) (count "attempt");
            Alcotest.(check int)
              (Printf.sprintf "request %d inject markers in dump" id)
              (max_retries + 1) (count "inject"))
          failing)

(* ---- event-driven pump ---- *)

(* The Shared pump parks on a wake-up channel instead of polling, and
   flushes the batcher at once while a pool lane is idle. Each test bounds
   its wait generously, so a lost wake-up or a waited-out linger fails it
   (rather than hanging it), while host noise does not. *)

module Metrics = Xsc_obs.Metrics

let await_within srv tk ~timeout_s =
  wait_for ~what:"request completion" ~timeout_s (fun () -> Server.poll srv tk <> None);
  Server.await srv tk

let spd_payload rng n = Request.Spd_solve (Mat.random_spd rng n, Vec.random rng n)

(* An idle pool gains nothing from batch company: a lone request runs at
   once even under a 5 s linger. *)
let test_pump_idle_dispatch () =
  let srv = Server.start { (shared_cfg 2) with linger_s = 5.0 } in
  let payload = spd_payload (Rng.create 71) 24 in
  let t0 = Unix.gettimeofday () in
  let tk = Result.get_ok (Server.submit srv payload) in
  let c = await_within srv tk ~timeout_s:1.0 in
  let elapsed = Unix.gettimeofday () -. t0 in
  Server.stop srv;
  Alcotest.(check bool) (Printf.sprintf "done in %.3f s < 1 s" elapsed) true (elapsed < 1.0);
  match c.Request.outcome with
  | Ok sol ->
    Alcotest.(check bool) "bitwise vs Route.direct" true
      (Loadgen.solutions_bitwise_equal sol (Route.direct payload))
  | Error e -> Alcotest.fail ("request failed: " ^ Request.error_message e)

(* With the only lane busy, a back-to-back burst still coalesces: batches
   form by size or linger exactly as before. *)
let test_pump_saturated_batches () =
  let srv = Server.start (shared_cfg 1) in
  let rng = Rng.create 73 in
  let payloads = List.init 40 (fun _ -> spd_payload rng 64) in
  let tickets = List.map (fun p -> Result.get_ok (Server.submit srv p)) payloads in
  List.iter
    (fun tk ->
      match (await_within srv tk ~timeout_s:5.0).Request.outcome with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("request failed: " ^ Request.error_message e))
    tickets;
  Server.stop srv;
  let c = Server.counters srv in
  Alcotest.(check bool)
    (Printf.sprintf "batches %d < completed %d" c.Server.batches c.Server.completed)
    true
    (c.Server.batches < c.Server.completed);
  check_counters_reconcile "saturated burst" srv ~offered:40

(* The pump parks with nothing staged while the faulted attempt backs off;
   the retry's due time, not a poll, brings it back. *)
let test_pump_retry_wakes () =
  let h =
    Harness.create { Harness.default with seed = 3; p_raise = 1.0; transient = true }
  in
  let srv =
    Server.start ~harness:h
      { (shared_cfg 2) with linger_s = 0.0; max_retries = 3; retry_backoff_s = 0.2 }
  in
  let t0 = Unix.gettimeofday () in
  let tk = Result.get_ok (Server.submit srv (spd_payload (Rng.create 79) 8)) in
  let c = await_within srv tk ~timeout_s:3.0 in
  let elapsed = Unix.gettimeofday () -. t0 in
  Server.stop srv;
  Alcotest.(check int) "one injected fault" 1 (Harness.raised h);
  Alcotest.(check int) "one retry" 1 c.Request.retries;
  Alcotest.(check bool) "retried to success" true (Result.is_ok c.Request.outcome);
  Alcotest.(check bool)
    (Printf.sprintf "done in %.3f s, within [0.2, 1.5) s" elapsed)
    true
    (elapsed >= 0.2 && elapsed < 1.5)

(* The second CG batch waits in the heap behind the class cap with no
   deadline to wake for: only the first one's completion can release it. *)
let test_pump_cap_release () =
  let srv =
    Server.start
      { (shared_cfg 2) with Server.class_caps = [ ("cg", 1) ]; max_batch = 1;
        linger_s = 0.0 }
  in
  let rng = Rng.create 83 in
  let a = Stencil.poisson_3d 8 in
  let mk () =
    Request.Cg_solve { a; b = Vec.random rng a.Csr.rows; tol = 1e-8; max_iter = 240 }
  in
  let tickets = List.init 2 (fun _ -> Result.get_ok (Server.submit srv (mk ()))) in
  List.iter
    (fun tk ->
      match (await_within srv tk ~timeout_s:5.0).Request.outcome with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("capped request failed: " ^ Request.error_message e))
    tickets;
  Server.stop srv;
  check_counters_reconcile "cap release" srv ~offered:2

(* [stop] runs on its own domain so that a pump it fails to wake fails the
   test instead of hanging it. *)
let test_pump_stop_wakes () =
  let srv = Server.start (shared_cfg 2) in
  Unix.sleepf 0.05;
  let stopped = Atomic.make false in
  let t0 = Unix.gettimeofday () in
  let d =
    Domain.spawn (fun () ->
        Server.stop srv;
        Atomic.set stopped true)
  in
  wait_for ~what:"stop on an idle server" ~timeout_s:1.0 (fun () -> Atomic.get stopped);
  Domain.join d;
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "stop took %.3f s < 1 s" elapsed) true (elapsed < 1.0)

(* A polling pump would pass ~1,000 times in 200 ms; a parked one not at
   all. *)
let test_pump_idle_no_poll () =
  let passes = Metrics.counter "serve.pump_passes" in
  let srv = Server.start (shared_cfg 2) in
  let tk = Result.get_ok (Server.submit srv (spd_payload (Rng.create 89) 8)) in
  ignore (await_within srv tk ~timeout_s:1.0);
  Unix.sleepf 0.02;
  let p0 = Metrics.counter_value passes in
  Unix.sleepf 0.2;
  let p1 = Metrics.counter_value passes in
  Server.stop srv;
  Alcotest.(check bool)
    (Printf.sprintf "%d pump passes over 200 ms idle <= 10" (p1 - p0))
    true
    (p1 - p0 <= 10)

let () =
  Alcotest.run "xsc_serve"
    [
      ( "queue",
        [
          Alcotest.test_case "FIFO" `Quick test_queue_fifo;
          Alcotest.test_case "ring wraparound" `Quick test_queue_wraparound;
          Alcotest.test_case "bounded" `Quick test_queue_bounded;
          Alcotest.test_case "closed" `Quick test_queue_closed;
          Alcotest.test_case "bound under concurrent producers" `Quick
            test_queue_concurrent_bound;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "size-triggered flush" `Quick test_batcher_size_flush;
          Alcotest.test_case "linger-triggered flush" `Quick test_batcher_linger_flush;
          Alcotest.test_case "deadline-urgency flush" `Quick
            test_batcher_deadline_urgency_flush;
          Alcotest.test_case "classes stay separate" `Quick test_batcher_classes_separate;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "EDF order" `Quick test_scheduler_edf_order;
          Alcotest.test_case "FIFO within deadline class" `Quick
            test_scheduler_fifo_within_class;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "seeded schedule deterministic" `Quick
            test_loadgen_deterministic;
          Alcotest.test_case "payloads deterministic" `Quick
            test_loadgen_payload_deterministic;
        ] );
      ( "server",
        [
          Alcotest.test_case "serves bitwise-correct solutions" `Quick
            test_server_serves_bitwise;
          Alcotest.test_case "isolates a singular request" `Quick
            test_server_isolates_singular;
          Alcotest.test_case "backpressure rejects typed" `Quick test_server_backpressure;
          Alcotest.test_case "rejects after stop" `Quick test_server_rejects_after_stop;
          Alcotest.test_case "fault storm: transient retried" `Quick
            test_server_fault_storm_transient;
          Alcotest.test_case "fault storm: permanent typed" `Quick
            test_server_fault_storm_permanent;
        ] );
      ( "shared",
        [
          Alcotest.test_case "mixed kinds bitwise vs routed oracle" `Quick
            test_shared_dispatch_bitwise;
          Alcotest.test_case "transient storm converges bitwise" `Quick
            test_shared_transient_storm;
          Alcotest.test_case "permanent storm fails typed" `Quick
            test_shared_permanent_storm;
          Alcotest.test_case "isolates a singular job" `Quick
            test_shared_isolates_singular;
          Alcotest.test_case "open stream beside a closed one" `Quick test_open_beside_closed;
          Alcotest.test_case "admits while a retry sleeps" `Quick
            test_shared_admission_while_retry_sleeps;
          Alcotest.test_case "soak: thousands of requests" `Slow test_shared_soak;
        ] );
      ( "pump",
        [
          Alcotest.test_case "idle pool dispatches without linger" `Quick
            test_pump_idle_dispatch;
          Alcotest.test_case "saturated pool still batches" `Quick
            test_pump_saturated_batches;
          Alcotest.test_case "retry backoff wakes the pump" `Quick test_pump_retry_wakes;
          Alcotest.test_case "cap release dispatches a held batch" `Quick
            test_pump_cap_release;
          Alcotest.test_case "stop wakes an idle pump" `Quick test_pump_stop_wakes;
          Alcotest.test_case "idle pump does not poll" `Quick test_pump_idle_no_poll;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "chains bitwise vs sequential solver" `Quick
            test_sparse_serves_bitwise;
          Alcotest.test_case "non-convergence fails typed" `Quick
            test_sparse_non_convergence_typed;
          Alcotest.test_case "malformed payloads rejected at submit" `Quick
            test_sparse_validation;
          Alcotest.test_case "class cap bounds live cg batches" `Quick
            test_sparse_class_cap;
          Alcotest.test_case "two streams reconcile per class" `Quick
            test_streams_reconcile_per_class;
          Alcotest.test_case "transient storm converges bitwise" `Quick
            test_sparse_transient_storm;
          Alcotest.test_case "permanent storm fails typed" `Quick
            test_sparse_permanent_storm;
          Alcotest.test_case "gmres storm retries bitwise" `Quick
            test_gmres_storm_retries_bitwise;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "batched per-problem results" `Quick
            test_batched_results_isolation;
          Alcotest.test_case "harness thunk determinism" `Quick
            test_harness_thunk_determinism;
          Alcotest.test_case "route direct vs lapack" `Quick test_route_direct_vs_lapack;
          Alcotest.test_case "scratch buffer reuse" `Quick test_scratch_reuse;
          Alcotest.test_case "scratch crosses domains" `Quick test_scratch_crosses_domains;
          Alcotest.test_case "scratch reused while serving" `Quick test_scratch_reuse_serving;
          QCheck_alcotest.to_alcotest prop_routed_solve_order;
          Alcotest.test_case "shared template, private state" `Quick
            test_shared_template_private_state;
        ] );
      ( "spans",
        [
          Alcotest.test_case "id survives coalescing/EDF/retries" `Quick
            test_server_span_chains;
          Alcotest.test_case "spans off keeps nothing" `Quick test_server_spans_off;
          Alcotest.test_case "one chrome lane per request" `Quick
            test_server_span_chrome_lanes;
          Alcotest.test_case "two servers keep their own spans" `Quick
            test_server_spans_two_servers;
          Alcotest.test_case "past collector capacity" `Quick
            test_server_spans_past_capacity;
        ] );
      ( "slo",
        [
          Alcotest.test_case "burn rate and breach edge" `Quick test_slo_burn_rate;
          Alcotest.test_case "validation" `Quick test_slo_validation;
        ] );
      ( "flight",
        [
          Alcotest.test_case "permanent storm dumps failing chains" `Quick
            test_server_flight_dump_on_permanent_failure;
        ] );
    ]
