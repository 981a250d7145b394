(** Tiled QR factorization (flat-tree TS kernels) as a task DAG.

    The communication/synchronisation-friendly QR: [GEQRT] factors the
    diagonal tile, [TSQRT] eliminates each subdiagonal tile against the
    triangular factor, and [UNMQR]/[TSMQR] apply the reflectors across the
    trailing tiles. The stacked reflector blocks are kept in a side store so
    the orthogonal factor can be replayed onto right-hand sides. Supports
    [mt >= nt] (tall tiled matrices) for least squares. *)

open Xsc_linalg

type factorization = {
  tiles : Xsc_tile.Tile.t;  (** R in the upper tile triangle after {!factor} *)
  tau_diag : float array array;  (** [tau] of each [GEQRT(k)] *)
  stacked : (Mat.t * float array) option array array;
      (** [(V, tau)] of [TSQRT(i, k)] at [(i)(k)] *)
}

val create : Xsc_tile.Tile.t -> factorization
(** Wrap tiles (copied reference, mutated in place by {!factor}). *)

val tasks : factorization -> Runtime_api.task list
val dag : factorization -> Runtime_api.dag

val factor : ?exec:Runtime_api.exec -> Xsc_tile.Tile.t -> factorization
(** Factor in place; returns the handle holding the reflector store. *)

val solve : factorization -> Vec.t -> Vec.t
(** Least-squares / square solve: [x = R⁻¹ (Qᵀ b)] (length [cols]). *)

val factor_mat : ?exec:Runtime_api.exec -> nb:int -> Mat.t -> factorization

val flops : mt:int -> nt:int -> nb:int -> float
val task_count : mt:int -> nt:int -> int
