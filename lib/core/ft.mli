(** Fault-tolerant tiled Cholesky over packed storage: in-DAG ABFT
    detection, dependence-cone replay repair, and online checkpoint/restart.

    The recovery lattice, cheapest first:

    + {e ABFT detect + cone replay} — one checksum row of tiles rides the
      factorization ([Abft.overhead_model ~n ~nb] predicts the flop cost);
      each panel is verified before its consumers run, a mismatch triggers
      recomputation of just that panel's dependence cone from the pristine
      input plus already-verified panels, bitwise identical to a fault-free
      run;
    + {e checkpoint/restart} — task-body exceptions surface as
      {!Xsc_runtime.Real_exec.Task_failed} after a clean executor abort; the
      driver rolls back to the last snapshot (taken every [every] steps,
      optionally persisted atomically via {!Xsc_resilience.Checkpoint}) and
      replays only the remaining steps;
    + {e fail-stop} — after [max_restarts] failed restarts the last
      [Task_failed] propagates to the caller.

    Execution is step-synchronised: panel sub-DAG, verify, then update
    sub-DAG, all through the real executors (any {!Runtime_api.exec}). A
    corrupted tile in column [j] is read by no task before panel [j]'s
    verification, so damage is always detected before it can propagate. *)

type report = {
  steps : int;  (** outer steps executed ([nt]) *)
  detected : int;  (** panel verifications that failed (fault events) *)
  repaired_tiles : int;  (** tiles found damaged and overwritten by replay *)
  replayed_kernels : int;  (** kernels run during cone replay *)
  restarts : int;  (** rollbacks after an executor-reported task failure *)
  checkpoints_written : int;  (** checkpoint files persisted *)
  resumed : bool;  (** this run started from an on-disk checkpoint *)
}

type ckpt_policy = {
  path : string option;
      (** where to persist snapshots (atomic + CRC via
          {!Xsc_resilience.Checkpoint}); [None] keeps snapshots in memory
          only (rollback works, cross-process resume does not) *)
  every : int;  (** snapshot after every [every] completed steps; >= 1 *)
}

exception Unrecoverable of int
(** Panel [k] still fails verification after replay — the pristine copy or
    an already-verified panel was damaged outside the fault model. *)

val potrf_ft :
  ?exec:Runtime_api.exec ->
  ?harness:Xsc_resilience.Harness.t ->
  ?abft:bool ->
  ?tol:float ->
  ?checkpoint:ckpt_policy ->
  ?max_restarts:int ->
  Xsc_tile.Packed.D.t ->
  report
(** Fault-tolerant packed tiled Cholesky (lower). The result buffer is
    bitwise identical to {!Xsc_tile.Packed.D.potrf} on the same input —
    replay repair recomputes clean values exactly, and kernel order per
    tile is schedule-independent. [harness] injects faults during
    execution (see {!Xsc_resilience.Harness}); [abft] (default [true])
    set to [false] drops to restart-only mode — no checksum row, no
    per-panel verification, so silent corruption passes undetected while
    task failures still roll back and replay; it is the recovery-lattice
    point below ABFT and the ablation baseline for measuring pure ABFT
    overhead. [tol] (default [1e-6]) is the relative checksum mismatch
    threshold; [max_restarts] (default 64) bounds rollbacks before the
    failure is re-raised. If [checkpoint] names a [path] holding a valid
    checkpoint of the same input matrix (fingerprint-matched), the run
    resumes from its step frontier; the file is removed on successful
    completion. Raises {!Unrecoverable} if a panel cannot be repaired,
    [Invalid_argument] if [every < 1]. *)
