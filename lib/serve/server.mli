(** The concurrent solver service.

    Pipeline: admission control -> bounded ingress {!Queue} -> dynamic
    {!Batcher} -> earliest-deadline-first {!Scheduler} -> persistent
    worker-domain pool. Requests beyond the admission window are rejected
    with a typed error at submit (backpressure — total in-system memory is
    bounded by [capacity] end to end, counting queued, staged and executing
    requests); admitted requests always resolve to a typed
    {!Request.completion}.

    The window is measured differently per dispatch mode (see
    {!occupancy}): [Slot] counts requests in-system; [Shared] counts
    actual in-flight work — live pool jobs plus requests still travelling
    towards the pool — so a retry asleep in backoff frees its slot and
    in-system memory is bounded by [capacity] plus the transient backoff
    population.

    {2 Fault isolation}

    Batch members execute as independent result slots
    ({!Xsc_core.Batched.run_batch_results}): one singular matrix or one
    injected fault fails exactly that request — never its batch, never the
    server. Transient injected faults ({!Xsc_resilience.Harness.Injected}
    under a [transient] policy) are retried with exponential backoff up to
    [max_retries]; deterministic kernel failures fail fast.

    {2 Observability}

    Counters [serve.admitted\]/[rejected]/[completed]/[failed]/[retried]/
    [batches] and log2 histograms [serve.queue_wait_s]/[service_s]/
    [total_s]/[batch_size]/[alloc_minor_words_per_req] feed the
    {!Xsc_obs.Metrics} registry.

    With [spans] on (the default), the server keeps a causal
    {!Xsc_obs.Span} tree per request: a root span minted at admission,
    wait and per-attempt child spans, plus whatever executor tasks,
    injected faults and ABFT replays run under the attempt's ambient
    context. Every segment lands in this server's own span collector, a
    lock-free ring that overwrites its oldest records once full (65,536
    records), so a long-running server keeps tracing and concurrent
    servers never mix their spans. {!span_chrome_json} renders one
    contiguous lane per request (pid 1) with flow-event parent arrows —
    retries included. [slos] attaches per-class burn-rate monitors
    ({!Slo}); [flight_path] arms the crash {!Xsc_resilience.Flight}
    recorder: the collector's newest 4,096 records are dumped on the
    first permanent request failure, on entering SLO breach, and at
    [stop] when any request failed. *)

(** How claimed batches execute.

    [Slot]: a worker domain claims a batch and runs its members to
    completion ({!Xsc_core.Batched.run_batch_results}) — request-granular
    occupancy: a large request holds its lane for its whole service time.

    [Shared n]: every request's tiled DAG is submitted into one shared
    deadline-aware task pool ({!Xsc_runtime.Pool}) on [n] persistent
    worker domains via {!Route}. No per-request executor or barrier; the
    request's EDF deadline reaches {e task} granularity (composite
    {!Xsc_runtime.Prio} key), so a small request entering while a large
    factorization streams preempts at the next task boundary — its wait
    is bounded by ~one task's service time, not the large DAG's tail.
    Fault isolation, transient-fault retry and span parentage carry over:
    a failing task aborts only its own job, retries resubmit after
    backoff (the pump holds them; no pool lane ever sleeps), and task
    spans parent onto the submitting request even when many requests
    interleave on one lane. *)
type dispatch =
  | Slot
  | Shared of int

type config = {
  workers : int;  (** persistent worker domains ([Slot] mode) *)
  capacity : int;  (** admission window: max requests in-system at once *)
  max_batch : int;  (** size-triggered batch flush *)
  linger_s : float;
      (** time-triggered batch flush; under [Shared] it binds only while
          the pool is saturated — with a lane idle, open batches flush at
          once *)
  default_deadline_s : float;  (** deadline when [submit] passes none *)
  max_retries : int;  (** retry budget for transient injected faults *)
  retry_backoff_s : float;  (** base backoff, doubled per retry *)
  spans : bool;  (** keep causal span records per request *)
  slos : Slo.objective list;  (** per-class burn-rate monitors; [[]] = off *)
  flight_path : string option;  (** arm the flight recorder: dump here *)
  dispatch : dispatch;  (** batch execution mode (default [Shared 2]) *)
  class_caps : (string * int) list;
      (** class-aware dispatch ([Shared] mode only): at most [cap]
          attempts of kind [kind] (a {!Request.kind_name}, e.g. ["cg"])
          live in the pool at once. A capped class's batches wait in the
          EDF heap — keeping their place in line — while the class is at
          its cap, so a stream of long bandwidth-bound solves cannot
          occupy every pool lane and destroy compute-bound tail latency.
          Checked at batch granularity (a batch may overshoot its cap by
          its own size minus one); ignored under [Slot]. [[]] = uncapped. *)
}

val default_config : config
(** Shared-pool dispatch on 2 domains (the default since the Shared path
    soaked through PRs 8-9 CI; [workers] only applies when [Slot] is
    selected), capacity 64, batches of 8 with a 2 ms linger, 250 ms
    deadline, 3 retries from a 0.5 ms base backoff; spans on, no SLOs, no
    class caps, flight recorder unarmed. *)

type t
type ticket

type counters = {
  admitted : int;
  rejected : int;
  completed : int;  (** resolved [Ok] *)
  failed : int;  (** resolved [Error (Failed _)] *)
  retried : int;  (** re-executions after transient injected faults *)
  batches : int;  (** batches dispatched *)
  cap_deferred : int;
      (** batches a class cap held back at least once (class-aware
          dispatch); each counts once however long it waits *)
}

val start : ?harness:Xsc_resilience.Harness.t -> config -> t
(** Spawn the worker pool. [harness] injects per-request faults keyed by
    request id ({!Xsc_resilience.Harness.wrap_thunk}) — the seeded
    fault-storm hook. Raises [Invalid_argument] on nonsensical config. *)

val submit :
  t -> ?deadline_s:float -> Request.payload -> (ticket, Request.error) result
(** Admit a request (any domain). [Error (Rejected Queue_full)] when the
    admission window is full — the backpressure signal; the request was
    not queued and will never complete. Raises [Invalid_argument] on
    malformed payloads or non-positive deadlines (caller bugs, not load). *)

val await : t -> ticket -> Request.completion
(** Block until the request resolves. Every admitted request resolves,
    fault storms included. *)

val poll : t -> ticket -> Request.completion option
(** Non-blocking {!await}. *)

val stop : t -> unit
(** Graceful shutdown: stop admitting, flush partial batches, drain
    everything in-system, join the workers. Wakes a parked pump, so an
    idle server stops at once. Idempotent. *)

val counters : t -> counters
(** Per-server totals. Quiescent invariant (after [stop], or whenever no
    request is in flight): [admitted = completed + failed], with
    [rejected] counted separately. *)

val in_flight : t -> int
(** Momentary in-system count (admitted, not yet completed). *)

val class_live : t -> string -> int
(** Momentary live-in-pool attempt count of a capped kind (0 for kinds
    without a cap entry). Kept as the test oracle for class caps. *)

val occupancy : t -> int
(** Momentary admission-window occupancy, the quantity {!submit} compares
    against [capacity]. [Slot]: the in-system count. [Shared]: actual
    in-flight work — DAGs live in the shared pool
    ({!Xsc_runtime.Pool.live_jobs}) plus requests still travelling towards
    it; a request waiting out a transient retry backoff holds no pool
    lane and counts towards neither term, so admission keeps flowing
    while retries sleep. *)

val trace : t -> Xsc_runtime.Trace.t
(** The span collector's wait and attempt records as a worker-lane trace:
    attempts on the lanes that ran them ([0..workers-1]), queue waits on
    lane [workers]. Covers the records still in the collector — the newest
    ones once it has overwritten any ({!span_dropped}); empty when [spans]
    is off. Feed to {!Xsc_runtime.Trace.to_chrome_json}, so a
    served run drops into the existing Chrome-trace pipeline. *)

val origin_ns : t -> int
(** Monotonic timestamp taken at [start]; span export rebases on it. *)

val span_records : t -> Xsc_obs.Span.record list
(** The causal span records still in the collector, oldest first in
    record order: every record when {!span_dropped} is 0, else the newest
    65,536 ([[]] when [spans] is off). *)

val span_dropped : t -> int
(** Span records overwritten by the collector's ring (0 = {!span_records}
    holds every record this server made). *)

val span_chrome_events : t -> Xsc_util.Json.t list
(** {!Xsc_obs.Span.chrome_events} over {!span_records} — merge into a
    worker trace via {!Xsc_runtime.Trace.to_chrome_json}'s [extra]. *)

val span_chrome_json : t -> string
(** Standalone Chrome trace of the request lanes: one lane (tid) per
    request id on pid 1, retries and nested segments included, parent
    arrows as flow events. *)

val slo_reports : t -> Slo.report list
(** Burn-rate state per monitored class ([[]] when [slos] is empty). *)

val slo_breached : t -> bool

val slo_report_json : t -> Xsc_util.Json.t option
(** The [serve.slo] record ({!Slo.report_json}); [None] when [slos] is
    empty. *)
