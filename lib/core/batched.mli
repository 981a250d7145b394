(** Batched small linear algebra.

    The other end of the extreme-scale story: applications (FEM assembly,
    tensor contractions, block preconditioners) need thousands of
    *independent tiny* factorizations, where per-call overhead and idle
    cores — not flops — dominate. Batched interfaces expose the whole batch
    to the runtime as one task set.

    Fault blast-radius: {!run_batch_results} captures each problem's
    outcome in its own slot — one singular matrix fails one slot, never the
    batch — which is what a serving layer ({!Xsc_serve.Server}) needs for
    per-request isolation. The raising wrappers keep the historical
    contract: the whole batch still runs, then the first failure (in index
    order) is re-raised. *)

open Xsc_linalg

val run_batch_results :
  ?exec:Runtime_api.exec -> (unit -> 'a) array -> ('a, exn) result array
(** Run every thunk as an independent task; slot [i] holds thunk [i]'s
    value or the exception it raised. All slots are filled — no failure
    aborts the batch. *)

val potrf_batch : ?exec:Runtime_api.exec -> Mat.t array -> unit
(** Cholesky-factor every (small SPD) matrix in place, as independent
    tasks. Raises [Lapack.Singular] if any matrix fails (after the whole
    batch has run). *)

val chol_solve_batch : ?exec:Runtime_api.exec -> Mat.t array -> Vec.t array -> Vec.t array
(** Factor-and-solve a batch of SPD systems (inputs preserved). *)

val tasks_potrf : Mat.t array -> Runtime_api.task list
(** The underlying task list (for scheduling experiments). *)

val batch_flops_potrf : Mat.t array -> float
