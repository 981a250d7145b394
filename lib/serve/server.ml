(* The concurrent solver service: admission -> bounded ingress queue ->
   dynamic batcher -> EDF ready heap -> one shared deadline-aware task
   pool ({!Xsc_runtime.Pool}).

   Concurrency structure (default [Shared] dispatch): submit-side state is
   atomics (the admission window) plus the bounded ingress queue. One pump
   domain owns the batcher and EDF heap under the single state mutex, so
   they stay simple single-threaded data structures. Each pump pass
   resubmits due retries, drains the ingress into the batcher, flushes
   due batches into the heap and claims the most urgent eligible batch.
   The pump is work-conserving: when no batch is claimable while a pool
   lane is idle, it flushes the open batcher classes at once, so the
   linger binds only while the pool is saturated — then batches still
   form by size, by linger, or early for a near deadline. With nothing to
   do the pump parks on a self-pipe until an admission, a completion that
   frees a lane or a class-cap slot, a retry, [stop], or the next linger
   or retry deadline (OCaml's [Condition] has no timed wait, so the pipe
   is waited on with [Unix.select]); it never polls. A claimed batch is a
   dispatch unit only: every member becomes its own DAG job in the pool,
   carrying the request's deadline down to task granularity, and its
   completion callback settles the request on whichever pool worker ran
   its last task. No thread blocks per request.

   Fault isolation is per request: a failing task aborts only its own
   job, so one singular matrix or injected fault fails exactly one
   request with a typed error. A transient injected fault hands the
   request back to the pump with a backoff due time, and the pump
   resubmits it as a fresh attempt — no pool lane ever sleeps. The server
   itself never goes down from a request failure.

   The admission window is measured against actual in-flight work:
   occupancy is [Pool.live_jobs] (DAGs live in the shared pool) plus
   requests still travelling towards the pool (ingress/batcher/EDF heap).
   A request waiting out a transient retry backoff holds no pool lane, so
   it does not count against the window — admission keeps flowing while
   retries sleep, and in-system memory is bounded by [capacity] plus the
   (transient) backoff population.

   [Slot] dispatch, kept as the run-to-completion ablation, instead runs
   [workers] domains that each claim a batch and execute its members as
   independent result slots ([Batched.run_batch_results]), retrying
   transient faults on the same worker; its window counts requests from
   accept to completion. *)

open Xsc_linalg
module Clock = Xsc_obs.Clock
module Metrics = Xsc_obs.Metrics
module Span = Xsc_obs.Span
module Gcstat = Xsc_obs.Gcstat
module Trace = Xsc_runtime.Trace
module Real_exec = Xsc_runtime.Real_exec
module Pool = Xsc_runtime.Pool
module Harness = Xsc_resilience.Harness
module Flight = Xsc_resilience.Flight

(* [Slot]'s idle worker poll; the [Shared] pump parks instead *)
let poll_s = 0.0002

let m_admitted = Metrics.counter "serve.admitted"
let m_rejected = Metrics.counter "serve.rejected"
let m_completed = Metrics.counter "serve.completed"
let m_failed = Metrics.counter "serve.failed"
let m_retried = Metrics.counter "serve.retried"
let m_batches = Metrics.counter "serve.batches"
let m_pump_passes = Metrics.counter "serve.pump_passes"
let m_batch_size = Metrics.histogram "serve.batch_size"
let m_queue_wait = Metrics.histogram "serve.queue_wait_s"
let m_service = Metrics.histogram "serve.service_s"
let m_total = Metrics.histogram "serve.total_s"

(* per-request minor-heap allocation estimate (plan construction plus
   copy-out-and-release in Shared mode; the whole-batch delta divided by
   batch size in Slot mode): the "zero-allocation steady state" goal as a
   benchmarked number *)
let m_alloc = Metrics.histogram "serve.alloc_minor_words_per_req"

(* Two dispatch modes share the whole admission -> batcher -> EDF front:
   [Slot] claims a worker domain per batch and runs requests to completion
   on it (the original design, kept as the isolation-bench ablation);
   [Shared n] routes every request's DAG into one shared deadline-aware
   task pool ({!Xsc_runtime.Pool}) on [n] persistent worker domains — no
   per-request executor, no per-request barrier, and the request's EDF
   deadline travels down to *task* granularity, so a small request entering
   while a large factorization streams waits ~one task, not the tail of
   the large DAG. *)
type dispatch =
  | Slot
  | Shared of int

type config = {
  workers : int;
  capacity : int;
  max_batch : int;
  linger_s : float;
  default_deadline_s : float;
  max_retries : int;
  retry_backoff_s : float;
  spans : bool;
  slos : Slo.objective list;
  flight_path : string option;
  dispatch : dispatch;
  class_caps : (string * int) list;
}

let default_config =
  {
    workers = 2;
    capacity = 64;
    max_batch = 8;
    linger_s = 0.002;
    default_deadline_s = 0.25;
    max_retries = 3;
    retry_backoff_s = 0.0005;
    spans = true;
    slos = [];
    flight_path = None;
    (* Shared became the default after soaking through PRs 8-9 CI: EDF to
       task granularity, admission against actual in-flight work. [Slot]
       stays selectable as the run-to-completion ablation. *)
    dispatch = Shared 2;
    class_caps = [];
  }

type ticket = {
  t_mu : Mutex.t;
  t_cv : Condition.t;
  mutable result : Request.completion option;
}

type counters = {
  admitted : int;
  rejected : int;
  completed : int;
  failed : int;
  retried : int;
  batches : int;
  cap_deferred : int;
}

(* Class-aware dispatch: a per-kind concurrency cap on how many of a
   class's DAGs may be live in the shared pool at once. [cc_live] counts
   attempt submissions (incremented before Pool.submit, decremented on the
   attempt's completion callback); a retry asleep in backoff holds no cap
   slot, mirroring the admission window's pool-depth accounting. *)
type class_cap = { cc_kind : string; cc_cap : int; cc_live : int Atomic.t }

(* A transiently-faulted request waiting out its retry backoff: the pump
   resubmits it when due instead of a pool worker sleeping in a callback
   (a sleeping callback would block a whole execution lane). *)
type retry_entry = {
  re_due_ns : int;
  re_req : Request.t;
  re_attempt : int;  (* attempts already consumed *)
  re_dispatch_ns : int;  (* first submit-to-pool time, held across retries *)
}

(* The [Shared] pump's wake-up channel, an eventcount over a self-pipe.
   A producer bumps [events] after every state change the pump may act
   on, then writes one byte only if [parked] says the pump is asleep. The
   pump reads [events] before its pass and, after a pass with nothing to
   do, publishes [parked] and re-reads [events] before blocking. OCaml's
   atomics are sequentially consistent, so either the pump sees the new
   count and passes again, or the producer sees it parked and writes: no
   wake-up is lost. Both pipe ends are non-blocking; a full pipe already
   means the pump will wake. *)
type waker = {
  events : int Atomic.t;
  parked : int Atomic.t;  (* [running], [parked_idle] or [parked_held] *)
  rd : Unix.file_descr;
  wr : Unix.file_descr;
  drain_buf : Bytes.t;  (* pump-only *)
  wake_mu : Mutex.t;  (* orders byte writes against closing the pipe *)
  mutable closed : bool;  (* under [wake_mu] *)
}

let running = 0

(* nothing staged: only an admission, a retry or [stop] can give work *)
let parked_idle = 1

(* batches staged: a completion freeing a lane or cap slot can, too *)
let parked_held = 2

type t = {
  cfg : config;
  harness : Harness.t option;
  collector : Span.collector option;
  slo : Slo.t option;
  ingress : Request.t Queue.t;
  pool : Pool.t option;  (* Some iff [dispatch = Shared _] *)
  caps : class_cap array;  (* enforced by the Shared pump only *)
  c_cap_deferred : int Atomic.t;
  (* ---- shared worker state, under [mu] ---- *)
  mu : Mutex.t;
  batcher : Request.t Batcher.t;
  sched : Request.t Scheduler.t;
  tickets : (int, ticket) Hashtbl.t;
  deferred : (int, unit) Hashtbl.t;  (* seqs of batches held back by a cap *)
  (* ---- retry queue (Shared mode), under [retry_mu] ---- *)
  retry_mu : Mutex.t;
  mutable retry_q : retry_entry list;
  retry_due : int Atomic.t;
      (* earliest [re_due_ns] in [retry_q] ([max_int] when empty): written
         under [retry_mu], read lock-free by the pump *)
  waker : waker option;  (* Some iff [dispatch = Shared _] *)
  (* ---- submit-side state ---- *)
  in_system : int Atomic.t;  (* admitted and not yet completed *)
  staged : int Atomic.t;
  (* Shared mode: admitted and not yet live in the pool (ingress, batcher,
     EDF heap, dispatch in flight). The admission occupancy is
     [staged + Pool.live_jobs]: work the pipeline is actually carrying.
     A retry sleeping out its backoff is in neither term — by design. *)
  next_id : int Atomic.t;
  stopping : bool Atomic.t;
  start_ns : int;
  c_admitted : int Atomic.t;
  c_rejected : int Atomic.t;
  c_completed : int Atomic.t;
  c_failed : int Atomic.t;
  c_retried : int Atomic.t;
  c_batches : int Atomic.t;
  mutable domains : unit Domain.t array;
}

(* lane layout in the exported trace: workers 0..lanes-1, queue-wait
   spans on one extra virtual lane *)
let exec_lanes cfg = match cfg.dispatch with Slot -> cfg.workers | Shared n -> n
let queue_lane cfg = exec_lanes cfg

(* ---- pump wake-up ---- *)

let wake_byte = Bytes.make 1 '!'

(* Signal the pump. [freed] marks a completion that freed a pool lane or a
   class-cap slot: it matters only to a pump parked with batches staged.
   The CAS hands the one byte write to a single producer. A no-op without
   a pump ([Slot]). *)
let wake ?(freed = false) t =
  match t.waker with
  | None -> ()
  | Some w ->
    Atomic.incr w.events;
    let p = Atomic.get w.parked in
    if (p = parked_held || (p = parked_idle && not freed))
       && Atomic.compare_and_set w.parked p running
    then begin
      Mutex.lock w.wake_mu;
      (if not w.closed then
         try ignore (Unix.single_write w.wr wake_byte 0 1)
         with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
      Mutex.unlock w.wake_mu
    end

let lane_idle pool = Pool.live_jobs pool < Pool.workers pool

(* ---- request execution ---- *)

let solve_payload = function
  | Request.Spd_solve (a, b) ->
    let f = Mat.copy a in
    Lapack.potrf f;
    let x = Array.copy b in
    Lapack.potrs f x;
    Request.Vector x
  | Request.Lu_solve (a, b) -> Request.Vector (Lapack.lu_solve a b)
  | Request.Gemm (a, b) ->
    let ra, _ = Mat.dims a and _, cb = Mat.dims b in
    let c = Mat.create ra cb in
    Blas.gemm ~alpha:1.0 a b ~beta:0.0 c;
    Request.Matrix c
  | (Request.Cg_solve _ | Request.Mg_solve _) as p ->
    (* sparse kinds run the same stepper chain sequentially: bitwise equal
       to the pooled chain by construction; non-convergence raises
       Route.Non_convergence, a deterministic typed failure (not retried) *)
    Route.direct p

let thunk_of t (r : Request.t) () =
  match t.harness with
  | None -> solve_payload r.Request.payload
  | Some h -> Harness.wrap_thunk h ~key:r.Request.id (fun () -> solve_payload r.Request.payload)

(* One dispatch attempt of one request: the solve runs under the
   request's ambient span context (so executor tasks, injected faults and
   ABFT replays parent onto this attempt), and the attempt itself is
   recorded whether it returns or raises — a retried request shows every
   attempt in its lane. *)
let run_attempt t worker (r : Request.t) ~attempt () =
  match t.collector with
  | None -> thunk_of t r ()
  | Some col ->
    let ctx = Span.child r.Request.span in
    let t0 = Clock.now_ns () in
    let note () =
      Span.record col
        {
          Span.request = r.Request.id;
          span = ctx.Span.span;
          parent = ctx.Span.parent;
          phase = "attempt";
          name = Request.class_key r.Request.payload;
          lane = worker;
          attempt;
          start_ns = t0;
          finish_ns = Clock.now_ns ();
        }
    in
    (match Span.with_current (Some ctx) (thunk_of t r) with
    | v ->
      note ();
      v
    | exception e ->
      note ();
      raise e)

(* A flight dump holds the newest records of the server's own collector:
   enough for a storm's failing chains, small enough to write mid-storm. *)
let flight_last = 4096

let flight_records t =
  match t.collector with None -> [] | Some col -> Span.records ~last:flight_last col

let complete t (r : Request.t) outcome ~retries ~dispatch_ns =
  let finish_ns = Clock.now_ns () in
  let queue_wait_s = Clock.ns_to_s (dispatch_ns - r.Request.submit_ns) in
  let service_s = Clock.ns_to_s (finish_ns - dispatch_ns) in
  let total_s = Clock.ns_to_s (finish_ns - r.Request.submit_ns) in
  Metrics.observe m_queue_wait queue_wait_s;
  Metrics.observe m_service service_s;
  Metrics.observe m_total total_s;
  (match outcome with
  | Ok _ ->
    Atomic.incr t.c_completed;
    Metrics.incr m_completed
  | Error _ ->
    Atomic.incr t.c_failed;
    Metrics.incr m_failed);
  let completion =
    {
      Request.request = r;
      outcome;
      retries;
      queue_wait_s;
      service_s;
      total_s;
      met_deadline = finish_ns <= r.Request.deadline_ns;
    }
  in
  Mutex.lock t.mu;
  let ticket = Hashtbl.find_opt t.tickets r.Request.id in
  Hashtbl.remove t.tickets r.Request.id;
  Mutex.unlock t.mu;
  (* the request resolves even if the telemetry below raises *)
  let resolve () =
    (match ticket with
    | Some tk ->
      Mutex.lock tk.t_mu;
      tk.result <- Some completion;
      Condition.broadcast tk.t_cv;
      Mutex.unlock tk.t_mu
    | None -> ());
    (* last: only a fully completed request frees an admission slot *)
    ignore (Atomic.fetch_and_add t.in_system (-1));
    (* a stopping pump exits once nothing is in-system *)
    if Atomic.get t.stopping then wake t
  in
  Fun.protect ~finally:resolve (fun () ->
      (* causal span records: the wait segment and the root request segment
         (attempt segments were recorded as they ran). The root closes last,
         so by the time a flight dump triggers below, the collector holds the
         request's whole chain. *)
      (match t.collector with
      | None -> ()
      | Some col ->
        let key = Request.class_key r.Request.payload in
        let wait = Span.child r.Request.span in
        Span.record col
          {
            Span.request = r.Request.id;
            span = wait.Span.span;
            parent = wait.Span.parent;
            phase = "wait";
            name = Printf.sprintf "wait:%s" key;
            lane = queue_lane t.cfg;
            attempt = 0;
            start_ns = r.Request.submit_ns;
            finish_ns = dispatch_ns;
          };
        Span.record col
          {
            Span.request = r.Request.id;
            span = r.Request.span.Span.span;
            parent = -1;
            phase = "request";
            name = Printf.sprintf "%s(%d)" key r.Request.id;
            lane = -1;
            attempt = retries;
            start_ns = r.Request.submit_ns;
            finish_ns;
          });
      (* SLO burn-rate monitor; entering breach triggers a post-mortem dump *)
      (match t.slo with
      | None -> ()
      | Some slo ->
        let newly_breached =
          Slo.observe slo
            ~kind:(Request.kind_name r.Request.payload)
            ~id:r.Request.id ~latency_s:total_s
            ~failed:(Result.is_error outcome)
        in
        if newly_breached then
          match t.cfg.flight_path with
          | Some path ->
            ignore
              (Flight.dump_once ~path
                 ~reason:
                   (Printf.sprintf "slo-breach: class %s (request %d)"
                      (Request.kind_name r.Request.payload)
                      r.Request.id)
                 (fun () -> flight_records t))
          | None -> ());
      (* permanent request failure: first one dumps the flight recorder *)
      (match (outcome, t.cfg.flight_path) with
      | Error (Request.Failed _), Some path ->
        ignore
          (Flight.dump_once ~path
             ~reason:(Printf.sprintf "permanent-failure: request %d after %d retries" r.Request.id retries)
             (fun () -> flight_records t))
      | _ -> ()))

let execute t worker (batch : Request.t Batcher.batch) =
  let dispatch_ns = Clock.now_ns () in
  Atomic.incr t.c_batches;
  Metrics.incr m_batches;
  Metrics.observe m_batch_size (float_of_int (Array.length batch.Batcher.requests));
  (* allocation estimate: whole-batch minor-words delta on this domain
     (solve + retries + completion bookkeeping), amortised per request.
     Gc.minor_words is allocation-free, so the probe doesn't feed itself. *)
  let minor0 = Gcstat.minor_words () in
  (* batch members run as independent result slots on this worker;
     parallelism comes from sibling workers executing other batches *)
  let results =
    Xsc_core.Batched.run_batch_results
      (Array.map (fun r -> run_attempt t worker r ~attempt:0) batch.Batcher.requests)
  in
  Array.iteri
    (fun i first ->
      let r = batch.Batcher.requests.(i) in
      let retries = ref 0 in
      (* Only injected (transient-model) faults are retried: a singular
         matrix is deterministic, so re-running it would burn service time
         to reproduce the same failure. *)
      let rec settle res =
        match res with
        | Ok sol -> Ok sol
        | Error (Harness.Injected _) when !retries < t.cfg.max_retries ->
          incr retries;
          Atomic.incr t.c_retried;
          Metrics.incr m_retried;
          Unix.sleepf (t.cfg.retry_backoff_s *. ldexp 1.0 (!retries - 1));
          settle (try Ok (run_attempt t worker r ~attempt:!retries ()) with e -> Error e)
        | Error e ->
          Error (Request.Failed { attempts = !retries + 1; error = Printexc.to_string e })
      in
      let outcome = settle first in
      complete t r outcome ~retries:!retries ~dispatch_ns)
    results;
  let n = Array.length batch.Batcher.requests in
  if n > 0 then begin
    let per_req = (Gcstat.minor_words () -. minor0) /. float_of_int n in
    Metrics.observe_n m_alloc per_req ~n
  end

(* ---- shared-pool dispatch ---- *)

(* One attempt of one request as a pool job: build a fresh plan (fresh
   scratch cell, fresh fault wrapping), submit its DAG with the request's
   deadline and attempt span context, and let the completion callback —
   running on the pool worker that drained the job — assemble the
   solution, queue a retry, or settle the request. No thread ever blocks
   per request; concurrency lives entirely in the shared pool. *)
let cap_for t kind =
  let n = Array.length t.caps in
  let rec go i =
    if i >= n then None
    else if t.caps.(i).cc_kind = kind then Some t.caps.(i)
    else go (i + 1)
  in
  go 0

let rec submit_to_pool t pool (r : Request.t) ~attempt ~dispatch_ns =
  (* the attempt's DAG counts in [Pool.live_jobs] once submitted; for the
     first attempt the [staged] slot claimed at admission is released just
     after Pool.submit returns, so the occupancy briefly double-counts
     (conservative) and never dips *)
  let m0 = Gcstat.minor_words () in
  let plan = Route.plan ?harness:t.harness ~key:r.Request.id r.Request.payload in
  let plan_alloc = Gcstat.minor_words () -. m0 in
  let actx = Option.map (fun _ -> Span.child r.Request.span) t.collector in
  let t0 = Clock.now_ns () in
  let note_attempt ~worker =
    match (t.collector, actx) with
    | Some col, Some ctx ->
      Span.record col
        {
          Span.request = r.Request.id;
          span = ctx.Span.span;
          parent = ctx.Span.parent;
          phase = "attempt";
          name = Request.class_key r.Request.payload;
          lane = worker;
          attempt;
          start_ns = t0;
          finish_ns = Clock.now_ns ();
        }
    | _ -> ()
  in
  let cap = cap_for t (Request.kind_name r.Request.payload) in
  (match cap with Some cc -> Atomic.incr cc.cc_live | None -> ());
  Pool.submit ?interp:plan.Route.interp ~deadline_ns:r.Request.deadline_ns ?sctx:actx
    pool plan.Route.dag ~on_done:(fun failure ~worker ->
      (* the attempt left the pool: free its class-cap slot first, so the
         pump can dispatch the class's next batch while we settle this one *)
      (match cap with Some cc -> ignore (Atomic.fetch_and_add cc.cc_live (-1)) | None -> ());
      if Option.is_some cap || lane_idle pool then wake ~freed:true t;
      note_attempt ~worker;
      match failure with
      | None -> (
        let m1 = Gcstat.minor_words () in
        match plan.Route.finish () with
        | sol ->
          (* per-request allocation: plan construction (pump domain) plus
             copy-out-and-release (this domain); the factorization and
             sweep tasks themselves run in place over pooled buffers *)
          Metrics.observe m_alloc (plan_alloc +. (Gcstat.minor_words () -. m1));
          complete t r (Ok sol) ~retries:attempt ~dispatch_ns
        | exception e ->
          plan.Route.cleanup ();
          complete t r
            (Error (Request.Failed { attempts = attempt + 1; error = Printexc.to_string e }))
            ~retries:attempt ~dispatch_ns)
      | Some f -> (
        plan.Route.cleanup ();
        match f.Real_exec.error with
        | Harness.Injected _ when attempt < t.cfg.max_retries ->
          (* transient: hand the request back to the pump with a due time
             instead of sleeping here — a sleeping callback would block
             one of the pool's execution lanes *)
          Atomic.incr t.c_retried;
          Metrics.incr m_retried;
          let backoff_ns =
            int_of_float (t.cfg.retry_backoff_s *. ldexp 1.0 attempt *. 1e9)
          in
          let entry =
            {
              re_due_ns = Clock.now_ns () + backoff_ns;
              re_req = r;
              re_attempt = attempt + 1;
              re_dispatch_ns = dispatch_ns;
            }
          in
          Mutex.lock t.retry_mu;
          t.retry_q <- entry :: t.retry_q;
          if entry.re_due_ns < Atomic.get t.retry_due then
            Atomic.set t.retry_due entry.re_due_ns;
          Mutex.unlock t.retry_mu;
          wake t
        | e ->
          complete t r
            (Error (Request.Failed { attempts = attempt + 1; error = Printexc.to_string e }))
            ~retries:attempt ~dispatch_ns));
  if attempt = 0 then ignore (Atomic.fetch_and_add t.staged (-1))

(* The lock is taken only once the earliest backoff has expired, so a
   pump pass with retries asleep costs one atomic load. *)
and service_retries t pool =
  let now = Clock.now_ns () in
  if Atomic.get t.retry_due <= now then begin
    Mutex.lock t.retry_mu;
    let due, later = List.partition (fun e -> e.re_due_ns <= now) t.retry_q in
    t.retry_q <- later;
    Atomic.set t.retry_due (List.fold_left (fun m e -> min m e.re_due_ns) max_int later);
    Mutex.unlock t.retry_mu;
    List.iter
      (fun e ->
        submit_to_pool t pool e.re_req ~attempt:e.re_attempt ~dispatch_ns:e.re_dispatch_ns)
      (* oldest due first, so equal-backoff retries resubmit in fault order *)
      (List.sort (fun a b -> compare a.re_due_ns b.re_due_ns) due)
  end

(* A claimed batch in Shared mode is a dispatch unit only: each member
   becomes its own DAG submission (sharing the batch's dispatch stamp),
   and the pool interleaves their tasks with everything else in flight. *)
let dispatch_batch_pool t pool (batch : Request.t Batcher.batch) =
  let dispatch_ns = Clock.now_ns () in
  Atomic.incr t.c_batches;
  Metrics.incr m_batches;
  Metrics.observe m_batch_size (float_of_int (Array.length batch.Batcher.requests));
  Array.iter
    (fun r -> submit_to_pool t pool r ~attempt:0 ~dispatch_ns)
    batch.Batcher.requests

(* ---- worker loop ---- *)

(* Pump admitted requests through the batcher into the EDF heap and claim
   the most urgent ready batch. One state lock covers ingress drain, flush
   and claim, so batches can never be claimed twice. [eligible] filters
   the claim (class-aware dispatch): ineligible batches keep their EDF
   place in the heap. [idle] says whether the executor has a free lane:
   when nothing is claimable then, waiting for batch company would only
   leave the lane idle, so the open classes flush at once. *)
let next_batch ?(eligible = fun _ -> true) ?(idle = fun () -> false) t =
  Mutex.lock t.mu;
  let now = Clock.now_ns () in
  let rec drain () =
    match Queue.try_pop t.ingress with
    | None -> ()
    | Some req ->
      (match Batcher.add t.batcher ~now_ns:now req with
      | Some b -> Scheduler.push t.sched b
      | None -> ());
      drain ()
  in
  drain ();
  List.iter (Scheduler.push t.sched) (Batcher.flush_due t.batcher ~now_ns:now);
  if Atomic.get t.stopping then
    (* no more company is coming: flush partial batches immediately *)
    List.iter (Scheduler.push t.sched) (Batcher.flush_all t.batcher);
  let b =
    match Scheduler.pop_when eligible t.sched with
    | None when Batcher.pending t.batcher > 0 && idle () ->
      List.iter (Scheduler.push t.sched) (Batcher.flush_all t.batcher);
      Scheduler.pop_when eligible t.sched
    | b -> b
  in
  Mutex.unlock t.mu;
  b

let kind_of_class_key key =
  match String.index_opt key ':' with
  | Some i -> String.sub key 0 i
  | None -> key

(* Class-aware eligibility for the Shared pump: a batch whose kind has a
   concurrency cap waits (keeping its EDF place) while the class already
   has [cap] attempts live in the pool. The cap is checked at batch
   granularity, so a batch may overshoot it by its own size minus one —
   per-class batching already keeps sparse batches separate, and the
   bench's sparse classes batch small. *)
let batch_eligible t (b : Request.t Batcher.batch) =
  match cap_for t (kind_of_class_key b.Batcher.class_key) with
  | None -> true
  | Some cc ->
    let ok = Atomic.get cc.cc_live < cc.cc_cap in
    (* a held-back batch counts once, however many pump passes find it
       still held: [deferred] remembers it until it is claimed *)
    if ok then Hashtbl.remove t.deferred b.Batcher.seq
    else if not (Hashtbl.mem t.deferred b.Batcher.seq) then begin
      Hashtbl.replace t.deferred b.Batcher.seq ();
      Atomic.incr t.c_cap_deferred
    end;
    ok

let rec worker_loop t w =
  match next_batch t with
  | Some b ->
    execute t w b;
    worker_loop t w
  | None ->
    if Atomic.get t.stopping && Atomic.get t.in_system = 0 then ()
    else begin
      Unix.sleepf poll_s;
      worker_loop t w
    end

(* Block until a producer wakes the pump or the earliest linger or retry
   deadline passes — unless an event arrived since the pass that read
   [ev], in which case the pump passes again at once. *)
let park t w ~ev =
  Mutex.lock t.mu;
  let held = Batcher.pending t.batcher > 0 || Scheduler.length t.sched > 0 in
  let linger_due = Option.value (Batcher.next_due_ns t.batcher) ~default:max_int in
  Mutex.unlock t.mu;
  Atomic.set w.parked (if held then parked_held else parked_idle);
  let due = min linger_due (Atomic.get t.retry_due) in
  if Atomic.get w.events = ev then begin
    (* negative = no deadline; the extra microsecond keeps select's
       truncation to whole microseconds from waking just before [due] *)
    let timeout =
      if due = max_int then -1.0
      else Float.max 0.0 (Clock.ns_to_s (due - Clock.now_ns ()) +. 1e-6)
    in
    match Unix.select [ w.rd ] [] [] timeout with
    | [], _, _ -> ()
    | _ -> (
      try ignore (Unix.read w.rd w.drain_buf 0 (Bytes.length w.drain_buf))
      with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  end;
  Atomic.set w.parked running

(* Shared mode runs ONE pump domain: it drains admission into the batcher,
   dispatches claimed batches into the pool without blocking on them, and
   resubmits due retries; with nothing to do it parks. It exits only when
   nothing is in-system — every admitted request has fully settled
   through its completion callback. *)
let rec pump_loop t w pool =
  Metrics.incr m_pump_passes;
  let ev = Atomic.get w.events in
  service_retries t pool;
  match next_batch ~eligible:(batch_eligible t) ~idle:(fun () -> lane_idle pool) t with
  | Some b ->
    dispatch_batch_pool t pool b;
    pump_loop t w pool
  | None ->
    if Atomic.get t.stopping && Atomic.get t.in_system = 0 then ()
    else begin
      park t w ~ev;
      pump_loop t w pool
    end

(* ---- lifecycle ---- *)

let start ?harness cfg =
  if cfg.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  if cfg.capacity < 1 then invalid_arg "Server.start: capacity must be >= 1";
  if cfg.max_batch < 1 then invalid_arg "Server.start: max_batch must be >= 1";
  if cfg.linger_s < 0.0 then invalid_arg "Server.start: linger_s must be >= 0";
  if cfg.default_deadline_s <= 0.0 then
    invalid_arg "Server.start: default_deadline_s must be positive";
  if cfg.max_retries < 0 then invalid_arg "Server.start: max_retries must be >= 0";
  if cfg.retry_backoff_s < 0.0 then invalid_arg "Server.start: retry_backoff_s must be >= 0";
  (match cfg.dispatch with
  | Slot -> ()
  | Shared n -> if n < 1 then invalid_arg "Server.start: Shared pool workers must be >= 1");
  List.iter
    (fun (kind, cap) ->
      if kind = "" then invalid_arg "Server.start: class_caps kind must be non-empty";
      if cap < 1 then invalid_arg "Server.start: class_caps cap must be >= 1")
    cfg.class_caps;
  let collector = if cfg.spans then Some (Span.collector ()) else None in
  let pool =
    match cfg.dispatch with
    | Slot -> None
    | Shared n -> Some (Pool.create ~workers:n ())
  in
  let t =
    {
      cfg;
      harness;
      collector;
      slo = (match cfg.slos with [] -> None | slos -> Some (Slo.create slos));
      ingress = Queue.create ~capacity:cfg.capacity;
      pool;
      caps =
        Array.of_list
          (List.map
             (fun (kind, cap) ->
               { cc_kind = kind; cc_cap = cap; cc_live = Atomic.make 0 })
             cfg.class_caps);
      c_cap_deferred = Atomic.make 0;
      mu = Mutex.create ();
      batcher =
        Batcher.create
          { Batcher.max_batch = cfg.max_batch;
            linger_ns = int_of_float (cfg.linger_s *. 1e9) };
      sched = Scheduler.create ();
      tickets = Hashtbl.create 64;
      deferred = Hashtbl.create 8;
      retry_mu = Mutex.create ();
      retry_q = [];
      retry_due = Atomic.make max_int;
      waker =
        Option.map
          (fun _ ->
            let rd, wr = Unix.pipe ~cloexec:true () in
            Unix.set_nonblock rd;
            Unix.set_nonblock wr;
            {
              events = Atomic.make 0;
              parked = Atomic.make running;
              rd;
              wr;
              drain_buf = Bytes.create 64;
              wake_mu = Mutex.create ();
              closed = false;
            })
          pool;
      in_system = Atomic.make 0;
      staged = Atomic.make 0;
      next_id = Atomic.make 0;
      stopping = Atomic.make false;
      start_ns = Clock.now_ns ();
      c_admitted = Atomic.make 0;
      c_rejected = Atomic.make 0;
      c_completed = Atomic.make 0;
      c_failed = Atomic.make 0;
      c_retried = Atomic.make 0;
      c_batches = Atomic.make 0;
      domains = [||];
    }
  in
  (match (pool, t.waker) with
  | Some p, Some w ->
    (* execution concurrency lives in the pool; one pump feeds it *)
    t.domains <- [| Domain.spawn (fun () -> pump_loop t w p) |]
  | _ ->
    t.domains <- Array.init cfg.workers (fun w -> Domain.spawn (fun () -> worker_loop t w)));
  t

let reject t reason =
  Atomic.incr t.c_rejected;
  Metrics.incr m_rejected;
  Error (Request.Rejected reason)

(* Admission occupancy against [capacity].

   [Slot]: requests in-system (accept -> completion), the only load signal
   a run-to-completion worker pool has.

   [Shared]: actual in-flight work — DAGs live in the shared pool
   ([Pool.live_jobs]) plus requests still travelling towards it
   ([staged]). A request asleep in the retry queue holds no pool lane and
   is counted by neither term, so a transient-fault storm does not wedge
   the admission window shut while everyone waits out backoff. *)
let occupancy t =
  match t.pool with
  | None -> Atomic.get t.in_system
  | Some p -> Atomic.get t.staged + Pool.live_jobs p

let submit t ?deadline_s payload =
  Request.validate payload;
  let deadline_s = Option.value deadline_s ~default:t.cfg.default_deadline_s in
  if deadline_s <= 0.0 then invalid_arg "Server.submit: deadline must be positive";
  if Atomic.get t.stopping then reject t Request.Shutting_down
  else begin
    (* the admission window: claim a slot before queueing, release on
       completion (Slot) or on going live in the pool (Shared) — over-claim
       is undone immediately, so occupancy never stays above capacity *)
    let admitted =
      match t.pool with
      | None ->
        let prev = Atomic.fetch_and_add t.in_system 1 in
        if prev >= t.cfg.capacity then begin
          ignore (Atomic.fetch_and_add t.in_system (-1));
          false
        end
        else true
      | Some p ->
        let prev = Atomic.fetch_and_add t.staged 1 in
        if prev + Pool.live_jobs p >= t.cfg.capacity then begin
          ignore (Atomic.fetch_and_add t.staged (-1));
          false
        end
        else begin
          ignore (Atomic.fetch_and_add t.in_system 1);
          true
        end
    in
    if not admitted then reject t Request.Queue_full
    else begin
      let id = Atomic.fetch_and_add t.next_id 1 in
      let now = Clock.now_ns () in
      let req =
        {
          Request.id;
          payload;
          submit_ns = now;
          deadline_ns = now + int_of_float (deadline_s *. 1e9);
          span = Span.root ~sink:t.collector ~request:id;
        }
      in
      let tk = { t_mu = Mutex.create (); t_cv = Condition.create (); result = None } in
      Mutex.lock t.mu;
      Hashtbl.add t.tickets id tk;
      Mutex.unlock t.mu;
      match Queue.try_push t.ingress req with
      | Queue.Accepted ->
        Atomic.incr t.c_admitted;
        Metrics.incr m_admitted;
        wake t;
        Ok tk
      | (Queue.Full | Queue.Closed) as pr ->
        Mutex.lock t.mu;
        Hashtbl.remove t.tickets id;
        Mutex.unlock t.mu;
        ignore (Atomic.fetch_and_add t.in_system (-1));
        (match t.pool with
        | Some _ -> ignore (Atomic.fetch_and_add t.staged (-1))
        | None -> ());
        reject t
          (if pr = Queue.Closed then Request.Shutting_down else Request.Queue_full)
    end
  end

let await _t tk =
  Mutex.lock tk.t_mu;
  while tk.result = None do
    Condition.wait tk.t_cv tk.t_mu
  done;
  let r = Option.get tk.result in
  Mutex.unlock tk.t_mu;
  r

let poll _t tk =
  Mutex.lock tk.t_mu;
  let r = tk.result in
  Mutex.unlock tk.t_mu;
  r

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    Queue.close t.ingress;
    wake t;
    Array.iter Domain.join t.domains;
    (* the pump exits only at in_system = 0, so shutdown finds the pool
       quiescent — this join is the worker domains, not a drain *)
    (match t.pool with Some p -> Pool.shutdown p | None -> ());
    (* no completion callback can run any more; a submitter still racing
       [stop] finds [closed] under the lock, so no byte ever reaches a
       closed or reused descriptor *)
    (match t.waker with
    | Some w ->
      Mutex.lock w.wake_mu;
      w.closed <- true;
      Unix.close w.rd;
      Unix.close w.wr;
      Mutex.unlock w.wake_mu
    | None -> ());
    (* final post-mortem: workers have quiesced, so every chain among
       the collector's newest records is complete — overwrite any
       mid-storm first-failure dump with them *)
    match t.cfg.flight_path with
    | Some path when Atomic.get t.c_failed > 0 ->
      ignore
        (Flight.dump ~path
           ~reason:(Printf.sprintf "server-stop: %d request(s) failed" (Atomic.get t.c_failed))
           (flight_records t))
    | _ -> ()
  end

let in_flight t = Atomic.get t.in_system

let counters t =
  {
    admitted = Atomic.get t.c_admitted;
    rejected = Atomic.get t.c_rejected;
    completed = Atomic.get t.c_completed;
    failed = Atomic.get t.c_failed;
    retried = Atomic.get t.c_retried;
    batches = Atomic.get t.c_batches;
    cap_deferred = Atomic.get t.c_cap_deferred;
  }

let class_live t kind =
  match cap_for t kind with None -> 0 | Some cc -> Atomic.get cc.cc_live

let origin_ns t = t.start_ns
let span_records t = match t.collector with None -> [] | Some col -> Span.records col
let span_dropped t = match t.collector with None -> 0 | Some col -> Span.dropped col

let span_chrome_events t = Span.chrome_events ~origin_ns:t.start_ns (span_records t)
let span_chrome_json t = Span.to_chrome_json ~origin_ns:t.start_ns (span_records t)

let slo_reports t = match t.slo with None -> [] | Some s -> Slo.reports s
let slo_breached t = match t.slo with None -> false | Some s -> Slo.breached s
let slo_report_json t = Option.map Slo.report_json t.slo

(* The worker-lane view of the span records: each request's wait segment
   on the virtual queue lane and each attempt on the lane that ran it. *)
let trace t =
  let tr = Trace.create ~workers:(queue_lane t.cfg + 1) in
  List.iter
    (fun (s : Span.record) ->
      if (s.Span.phase = "wait" || s.Span.phase = "attempt") && s.Span.lane >= 0 then
        Trace.add tr
          {
            Trace.task = s.Span.request;
            name = Printf.sprintf "%s(%d)" s.Span.name s.Span.request;
            worker = s.Span.lane;
            start = Clock.ns_to_s (s.Span.start_ns - t.start_ns);
            finish = Clock.ns_to_s (s.Span.finish_ns - t.start_ns);
          })
    (span_records t);
  tr
