(** Shared deadline-aware task pool: the one work-stealing runtime.

    The pool keeps a fixed set of persistent worker domains and accepts
    DAG submissions dynamically. Each {!submit} registers a job — its
    DAG, interpreter, deadline and completion callback — injects the
    job's source tasks into a global priority queue and returns
    immediately; tasks from any number of jobs interleave on the same
    Chase–Lev deques, ordered by the composite {!Prio} key (request
    deadline first, flops-weighted bottom level as the critical-path
    tie-break, then FIFO). {!run} blocks on one job; {!run_once} runs one
    DAG to completion on a transient pool of its own — the dynamic DAG
    executor of the rule-2 comparison.

    Idle workers retry failed steal sweeps with bounded exponential
    backoff ({!Domain.cpu_relax} pauses doubling per failed sweep) and
    park on a condvar after a few dry sweeps, so the probe budget per idle
    episode is bounded. Counters: [runtime.steals],
    [runtime.steal_attempts], [runtime.parks], [runtime.park_ns],
    [runtime.tasks_executed], [pool.*].

    The latency-isolation mechanism: between consecutive local tasks every
    worker makes one atomic-load check whether the injection queue holds
    work with a strictly earlier deadline than its current job; if so it
    parks its popped task back on its own deque and runs the urgent
    arrival first. A small request entering while a large factorization
    streams therefore waits ~one task's service time, not the remainder of
    the large DAG.

    Failure isolation is per job: the first task body of a job that raises
    marks that job aborted; its remaining tasks drain through the deques
    with bodies skipped (so counters complete and the callback fires
    exactly once, with the failure), and every other job is untouched.

    Span parentage and tracing are per job: each job carries the span
    context given at submission, re-seated around every one of its task
    bodies, so task-level spans attach to the right request even when many
    requests' tasks interleave on one domain; a traced job carries its own
    per-task stamp array ({!Real_exec.stamps}), so one job's trace holds
    exactly its own tasks. *)

type t

val create : ?max_jobs:int -> workers:int -> unit -> t
(** Spawn [workers] persistent domains. [max_jobs] (default 4096) bounds
    concurrently registered jobs (slots recycle on completion). Raises
    [Invalid_argument] if [workers < 1] or [max_jobs < 1]. *)

val submit :
  ?interp:(Task.op -> unit) ->
  ?deadline_ns:int ->
  ?sctx:Xsc_obs.Span.ctx ->
  t ->
  Dag.t ->
  on_done:(Real_exec.failure option -> worker:int -> unit) ->
  unit
(** Register a job and inject its sources; returns immediately. [interp]
    executes op-encoded tasks ({!Real_exec.exec_body});
    [deadline_ns] (absolute, monotonic clock; default [max_int]) is the
    EDF component of every task's priority; [sctx] is the span context the
    job's task spans parent onto. [on_done] runs on the pool worker that
    completed (or drained) the last task, with [None] on success or the
    first captured failure; it must be fast and must not block — it may
    {!submit} follow-up jobs (dynamic insertion). An exception it raises
    is contained and counted on [pool.callback_failures]; the worker lane
    survives. An empty DAG completes inline on the calling thread
    ([worker = -1]).

    Raises [Invalid_argument] if a task lacks a body, the pool is shut
    down, or all [max_jobs] slots are in flight. *)

val run :
  ?interp:(Task.op -> unit) ->
  ?deadline_ns:int ->
  ?trace:bool ->
  t ->
  Dag.t ->
  Real_exec.stats
(** Blocking convenience: {!submit} then wait for completion; raises
    {!Real_exec.Task_failed} on job failure. The job's span context is the
    caller's ambient one ({!Real_exec.ambient_ctx}). [trace] (default
    [XSC_TRACE]) stamps this job's tasks into the returned trace. [elapsed]
    runs from submit to completion. Steal/park figures are zero — they are
    pool-lifetime quantities, not attributable to one job. Must not be
    called from a pool worker (a worker waiting on its own pool is a lost
    lane; with one worker, a deadlock). *)

val run_once :
  ?interp:(Task.op -> unit) -> ?trace:bool -> workers:int -> Dag.t -> Real_exec.stats
(** Run one DAG to completion on a transient pool: check the task bodies,
    {!create} a pool of [workers], {!run} the DAG, and {!shutdown} the
    pool — also when the run fails. Steal/park figures are the registry
    deltas over the pool's lifetime, which assumes no other work-stealing
    run overlaps it in this process. Raises [Invalid_argument] if a task
    lacks a body (before spawning any domain) or [workers < 1], and
    {!Real_exec.Task_failed} (after joining every worker) if a body
    raises. *)

val shutdown : t -> unit
(** Reject further submissions, let in-flight jobs drain, then join all
    worker domains. Idempotent; blocks until the workers exit. *)

val live_jobs : t -> int
(** Jobs submitted but not yet completed. *)

val workers : t -> int
