(** Host execution of task DAGs on the calling domain and on OCaml 5
    domains: the rule-2 baselines next to the work-stealing {!Pool}.

    - {!run_sequential} — program order on the calling domain (baseline
      and test oracle);
    - {!run_forkjoin} — a bulk-synchronous executor: dependence levels are
      executed one at a time over a fixed set of domains with a real
      barrier between levels (the classical loop-parallel style; the
      domains are reused across levels so the comparison measures barrier
      idle time, not domain spawn cost).

    The dynamic DAG executor is {!Pool}: {!Pool.run_once} runs one DAG to
    completion on a transient pool, {!Pool.submit} serves many at once.
    This module holds what every executor shares: the {!stats} and
    {!failure} types, task-body dispatch, task spans and trace stamps.

    Tasks must carry a body: a [run] closure, or a closure-free {!Task.op}
    when the caller passes an [interp] interpreter (the op wins if a task
    carries both). Bodies of
    independent tasks must be safe to run from different domains — the tile
    kernels are, as they write disjoint tiles. Op dispatch is one branch on
    an immediate tag: no per-task closure allocation.

    {2 Telemetry}

    All timing uses the monotonic {!Xsc_obs.Clock} (wall-clock is not
    monotonic; an NTP step mid-run would corrupt [elapsed]). Counters feed
    the {!Xsc_obs.Metrics} registry ([runtime.barrier_wait_ns],
    [runtime.tasks_executed], [runtime.task_failures]).

    With [~trace:true] (or [XSC_TRACE=1] in the environment) a run carries
    one preallocated stamp array — worker, start and finish per task, each
    written once by the worker that runs the task ({!run_body}) — turned
    into the returned {!Trace.t} after the run ({!trace_of_stamps}), so
    {!Trace.gantt}, {!Trace.to_chrome_json} and {!Trace.by_kernel} work on
    real runs. With tracing off the per-task cost is one [None] branch. *)

type stats = {
  elapsed : float;  (** monotonic seconds *)
  tasks : int;
  workers : int;
  steals : int;  (** successful steals ({!Pool.run_once}; 0 for the others) *)
  steal_attempts : int;
      (** all steal attempts, successful + failed ({!Pool.run_once}; 0
          otherwise).
          [steal_attempts - steals] failed probes distinguishes contention
          (many failures, few parks) from starvation (few attempts, long
          parks). *)
  parks : int;  (** condvar waits by idle workers ({!Pool.run_once}; 0 otherwise) *)
  park_time : float;
      (** cumulative seconds workers spent blocked: on the idle condvar
          ({!Pool.run_once}) or in level barriers (fork-join) *)
  trace : Trace.t option;  (** present iff tracing was enabled for the run *)
}

type failure = {
  failed_task : int;  (** id of the task whose body raised *)
  failed_name : string;
  failed_worker : int;  (** worker (domain index) that ran it *)
  error : exn;  (** the original exception from the task body *)
}

exception Task_failed of failure
(** Raised by every blocking executor when a task body raises, after the
    run has been aborted cleanly: no further task body starts, and every
    domain the run spawned is joined (or, on a shared {!Pool}, the job has
    drained) before the exception propagates — a fault can never leave a
    worker blocked on a condvar or barrier. Only the first failure is reported
    (concurrent failures race on a CAS; the winner's is kept). The
    [runtime.task_failures] counter tallies every captured failure. *)

val run_forkjoin :
  ?interp:(Task.op -> unit) -> ?trace:bool -> workers:int -> Dag.t -> stats
(** [park_time] reports the cumulative level-barrier wait — the BSP idle
    time the paper's DAG-scheduling argument is about. *)

val run_sequential : ?interp:(Task.op -> unit) -> ?trace:bool -> Dag.t -> stats
(** Program-order execution on the calling domain (baseline and test
    oracle). A trace of a sequential run is the per-kernel time breakdown
    with zero scheduling noise. *)

val default_workers : unit -> int
(** [Domain.recommended_domain_count], capped at 8 to stay polite on shared
    CI machines. *)

(** {2 Shared with the pool}

    {!Pool} reuses the task-body dispatch, span recording and trace stamps
    so every executor behaves identically per task. *)

val exec_body : (Task.op -> unit) option -> Task.t -> unit
(** Run one task body: the op through [interp] when both are present,
    else the [run] closure. Raises [Invalid_argument] when neither
    applies. *)

val check_bodies : (Task.op -> unit) option -> Dag.t -> unit
(** Validate every task is runnable under [interp] (op, or closure).
    Raises [Invalid_argument "Real_exec: task without body: NAME"]. *)

val failure_of : wid:int -> Task.t -> exn -> failure
(** The failure record of a task body that raised on worker [wid]. *)

val ambient_ctx : unit -> Xsc_obs.Span.ctx option
(** The calling domain's span context when it names a collector, else
    [None]: the context a run's task spans parent onto. *)

val stamps : ?trace:bool -> Dag.t -> int array option
(** A fresh stamp array (three ints per task, worker [-1] until the task
    runs) when tracing is on — [trace], defaulting to [XSC_TRACE] set to
    anything but [""], ["0"] or ["false"] — else [None]. *)

val run_body :
  sctx:Xsc_obs.Span.ctx option ->
  stamps:int array option ->
  wid:int ->
  (Task.op -> unit) option ->
  Task.t ->
  unit
(** Run one task body on worker [wid]: stamp its worker, start and finish
    into [stamps] (also when the body raises), and record a phase-["task"]
    child span of [sctx] around it into [sctx]'s collector. *)

val trace_of_stamps : Dag.t -> workers:int -> t0_ns:int -> int array -> Trace.t
(** The trace of a finished run: one entry per task that ran, times
    relative to [t0_ns]. *)
