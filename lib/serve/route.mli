(** Request -> dataflow plan: how the serving layer turns one request
    into a DAG submission for the shared task pool.

    SPD solves become [pack -> tiled packed Cholesky -> sweeps] DAGs,
    diagonally dominant LU solves [pack -> tiled packed unpivoted LU ->
    sweeps]; pivoting LU and GEMM run as single-closure-task DAGs (no op
    encoding). The pack task acquires the tile-major buffer and the padded
    right-hand side from {!Scratch} and packs only the tiles the program
    reads (the lower ones for Cholesky). The triangular solve runs inside
    the DAG: one forward task per tile row, runnable as soon as that row
    of the factor is final, then one backward task per block, last block
    first ({!Xsc_tile.Packed.D.potrs_fwd} and the like). [finish] only
    copies the solution out; [finish]/[cleanup] release the buffers, so
    they recycle across same-class requests whichever pool lane runs
    them. A tiled DAG's structure depends only on (program, tile count,
    nb): it is built once per key and cached, and a plan copies its task
    array and binds the pack and sweep closures to its own buffers.

    Sparse iterative solves ([Cg_solve]/[Mg_solve]) become sequential
    CHAINS of chunk tasks over a resumable stepper (task 0 initialises,
    each later task advances a fixed chunk of iterations; all tasks write
    one datum so the chain serialises in id order). The pool preempts only
    between chunks, bounding the head-of-line blocking a bandwidth-bound
    solve can inflict on dense traffic.

    The packed kernels are bitwise schedule-independent, and sparse chains
    are totally ordered, so executing a plan's DAG under any
    DAG-consistent interleaving (the shared pool under load, steals,
    preemption) then calling [finish] yields results bitwise identical to
    {!direct} on an equal payload. *)

exception Non_convergence of string
(** Raised by a sparse plan's [finish] when the solve exhausted its
    iteration budget without reaching tolerance (checked against the TRUE
    residual [b - A x], never the recurrence). Deterministic for a given
    payload, so the server fails the request typed without retrying —
    non-convergence feeds the same retry→typed-reject lattice as a
    singular dense matrix, never a silently wrong answer. *)

type t = {
  dag : Xsc_runtime.Dag.t;
  interp : (Xsc_runtime.Task.op -> unit) option;
      (** binds op tasks to the plan's packed buffer; [None] for closure
          plans. Already harness-wrapped when the plan was built with one. *)
  finish : unit -> Request.solution;
      (** call exactly once after the DAG drained successfully; returns
          the result and releases the plan's scratch *)
  cleanup : unit -> unit;
      (** call instead of [finish] when the DAG failed or was abandoned;
          releases whatever scratch the partial run acquired. Idempotent. *)
  tiled : bool;  (** true when routed to a tiled op DAG *)
}

val plan :
  ?harness:Xsc_resilience.Harness.t -> ?nb:int -> key:int -> Request.payload -> t
(** Build one attempt's plan. [nb] defaults to the host's tuned tile size
    ({!Xsc_tile.Packed.tuned_nb}[ ~fallback:64]). With [harness], fault
    injection keyed by [key] (the request id) is baked in: op plans raise
    at the first op of the attempt when targeted
    ({!Xsc_resilience.Harness.wrap_interp_key}), closure plans through
    {!Xsc_resilience.Harness.wrap_thunk} — same hash, same fired-set.
    Build a fresh plan per attempt; a replan after a transient fault runs
    clean. *)

val direct : ?nb:int -> Request.payload -> Request.solution
(** The per-request oracle: build the same plan (no faults) and execute
    it sequentially on the calling domain. Raises whatever the kernels
    raise (e.g. singular-matrix errors). *)

