(** Runtime fault injection for real DAG executions.

    Wraps any closure-free task interpreter ([Task.op -> unit]) so that
    faults fire {e during} execution: a task body raises {!Injected} with
    probability [p_raise], or silently corrupts one entry of the tile it
    just wrote with probability [p_corrupt]. Decisions are a pure hash of
    [(seed, op)] — no shared RNG state — so a seeded storm injects exactly
    the same faults at the same tasks on every run, regardless of how the
    work-stealing executor interleaves them, from any number of domains.

    Raises fire {e before} the kernel runs (a crash mid-task: the output
    tile is left stale, which the restart path recomputes); corruption
    fires {e after} (a silent error on produced data, which in-DAG ABFT
    must detect downstream). Every fault is tallied in the
    {!Xsc_obs.Metrics} registry ([resilience.harness.raised],
    [resilience.harness.corrupted], and [resilience.faults_injected] via
    {!Inject}) and in per-harness counters. *)

exception Injected of string
(** The synthetic task-body failure; carries the op name. Surfaces from
    executors wrapped in [Real_exec.Task_failed]. *)

type policy = {
  seed : int;
  p_raise : float;  (** per-task probability of a task-body exception *)
  p_corrupt : float;  (** per-task probability of silent tile corruption *)
  magnitude : float;  (** corruption delta scale (delta in [m, 2m), ± sign) *)
  transient : bool;
      (** when true (the default), an op that raised once runs clean on
          replay — the transient-fault model that lets checkpoint/restart
          converge; when false the fault is permanent and every retry
          re-raises. *)
}

val default : policy
(** [seed = 1], both probabilities 0, [magnitude = 1.0], transient. *)

type t

val create : policy -> t
(** Raises [Invalid_argument] unless [p_raise, p_corrupt >= 0] and their
    sum is [<= 1]. *)

val wrap_packed :
  t -> Xsc_tile.Packed.D.t -> (Xsc_runtime.Task.op -> unit) -> Xsc_runtime.Task.op -> unit
(** [wrap_packed t p interp] is an interpreter that runs [interp] and
    injects faults into the packed matrix [p] per the policy. Corruption
    lands on a deterministic entry of the tile the op writes (diagonal
    tiles: lower triangle only — their strictly-upper entries are never
    read by any kernel, so damage there would be dead by construction).
    Safe to call from any number of executor domains. *)

val targets_key : t -> int -> bool
(** Whether the policy selects integer key [key] for a raise — a pure
    hash of [(seed, key)], so a seeded load run injects the same faults
    at the same request ids on every run. Kept as the test oracle that
    predicts the injected set of a serve fault storm without executing
    anything. *)

val wrap_thunk : t -> key:int -> (unit -> 'a) -> 'a
(** Request-level injection for the serving layer: runs the thunk, but
    raises {!Injected} first when [targets_key] selects [key]. Transient
    policy means a key that raised once runs clean on the next attempt
    (retry-with-backoff converges); permanent means every attempt
    re-raises. Raise-only — [p_corrupt] has no effect at whole-request
    granularity. Safe from any number of domains. *)

val wrap_interp_key :
  t ->
  key:int ->
  (Xsc_runtime.Task.op -> unit) ->
  Xsc_runtime.Task.op ->
  unit
(** Request-keyed injection at {e task} granularity, for requests executed
    as DAG submissions into the shared pool (no single thunk to wrap):
    when [targets_key] selects [key], the returned interpreter raises
    {!Injected} at the first op it executes; otherwise (and on a
    transient key's replay) it is [interp] unchanged. Keyed decisions
    share {!wrap_thunk}'s hash and fired-set, so a seeded storm injects
    the same request set whichever execution path serves it. Wrap once
    per attempt. Safe from any number of domains. *)

val raised : t -> int
(** Task-body exceptions fired through this harness so far. *)

val corrupted : t -> int
(** Silent corruptions injected through this harness so far. *)

val reset : t -> unit
(** Clear the per-harness counters and the transient fired-sets (registry
    counters are not touched). *)
