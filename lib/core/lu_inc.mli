(** Tiled LU with incremental (tile-pairwise) pivoting.

    The general-matrix tile algorithm (Quintana-Ortí et al. / PLASMA
    [getrf_incpiv]): the diagonal tile is factored with partial pivoting
    confined to the tile, and each subdiagonal tile is eliminated against
    the current [U_kk] by a pivoted factorization of the stacked pair —
    the LU analogue of the tile-QR TS kernels. Pivoting never crosses tile
    pairs, so the panel needs no global synchronisation; the price is a
    (mildly) worse growth factor than full partial pivoting — the classic
    extreme-scale trade of numerical slack for parallelism. *)

open Xsc_linalg

type factorization = {
  tiles : Xsc_tile.Tile.t;  (** [U] in the upper tile triangle after {!factor} *)
  ipiv_diag : int array array;  (** tile-local pivots of each diagonal [GETRF(k)] *)
  stacked : (Mat.t * int array) option array array;
      (** packed stacked factor + pivots of [TSGETRF(i, k)] at [(i)(k)] *)
}

val create : Xsc_tile.Tile.t -> factorization
val tasks : factorization -> Runtime_api.task list
val dag : factorization -> Runtime_api.dag

val factor : ?exec:Runtime_api.exec -> Xsc_tile.Tile.t -> factorization
(** Factor a square tiled matrix in place. Raises [Lapack.Singular] on an
    exactly singular tile pair. *)

val solve : factorization -> Vec.t -> Vec.t
(** Solve [A x = b] from the factorization. *)

val factor_mat : ?exec:Runtime_api.exec -> nb:int -> Mat.t -> factorization

val flops : nt:int -> nb:int -> float
val task_count : nt:int -> int
