(** Shared execution plumbing for the tiled algorithms. *)

type task = Xsc_runtime.Task.t
type dag = Xsc_runtime.Dag.t

type exec =
  | Sequential
  | Dataflow of int
      (** dynamic work-stealing executor on a transient pool of [n]
          domains ({!Xsc_runtime.Pool.run_once}) *)
  | Forkjoin of int  (** level-synchronous executor on [n] domains *)
  | Pooled of Xsc_runtime.Pool.t
      (** submit into a shared long-lived pool and block until the job
          drains ({!Xsc_runtime.Pool.run}); the composite priority key
          supplies critical-path ordering. Must not be used from a pool
          worker (see {!Xsc_runtime.Pool.run}). *)

val execute : ?interp:(Xsc_runtime.Task.op -> unit) -> exec -> dag -> Xsc_runtime.Real_exec.stats
(** [Dataflow] and [Pooled] order ready tasks by the pool's composite
    key, whose flops-weighted bottom-level tie-break gives every tiled
    factorization (Cholesky, LU, QR, ...) critical-path-first ordering on
    real domains for free. [interp] dispatches closure-free op-encoded
    tasks (see {!Xsc_runtime.Task.op}); without it, tasks must carry
    [run] closures. *)

val execute_exn :
  ?interp:(Xsc_runtime.Task.op -> unit) -> exec -> dag -> Xsc_runtime.Real_exec.stats
(** Like {!execute}, but a {!Xsc_runtime.Real_exec.Task_failed} abort
    re-raises the task body's original exception: [Cholesky.factor] on a
    non-SPD matrix raises [Singular], not the executor wrapper. Use
    {!execute} directly to observe task failures (as {!Ft} does). *)

type emit =
  ?run:(unit -> unit) -> ?op:Xsc_runtime.Task.op -> string -> float ->
  Xsc_runtime.Task.access list -> unit
(** [emit ?run ?op name flops accesses] appends one task to a program. *)

val program : nb:int -> (emit -> unit) -> task list
(** [program ~nb build] collects the tasks [build] emits, in emission
    order, with ids [0, 1, ...] in that order and byte weight
    {!tile_bytes}. One pass, no intermediate lists. *)

val emit_op : emit -> Xsc_runtime.Task.op -> float -> Xsc_runtime.Task.access list -> unit
(** Emit an op-encoded task named {!Xsc_runtime.Task.op_name}. *)

val datum : int -> int -> stride:int -> int
