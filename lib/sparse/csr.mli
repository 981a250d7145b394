(** Compressed sparse row matrices.

    The substrate of the HPCG-style experiments: SpMV and symmetric
    Gauss-Seidel are the memory-bandwidth-bound kernels whose low arithmetic
    intensity creates the HPL/HPCG gap.

    Every SpMV/sweep entry point tallies its flop and byte traffic through
    {!Xsc_linalg.Blas.tally_kernel} (counters [blas.spmv.*], [blas.symgs.*],
    [blas.jacobi.*]), so sparse kernels appear in the same roofline
    achieved-vs-roof tables as the dense ones. *)

open Xsc_linalg

type t = {
  rows : int;
  cols : int;
  row_ptr : int array;  (** length [rows + 1] *)
  col_idx : int array;
  values : float array;
}

val of_triplets : rows:int -> cols:int -> (int * int * float) list -> t
(** Duplicate coordinates are summed; entries are sorted within each row.
    Explicit zeros are kept (HPCG keeps the full stencil pattern). *)

val of_dense : Mat.t -> t
(** Drops exact zeros. Kept, with {!to_dense}, as the dense test oracle for
    SpMV and the stencil generators. *)

val to_dense : t -> Mat.t
val nnz : t -> int
val get : t -> int -> int -> float
val mul_vec : t -> Vec.t -> Vec.t
val mul_vec_into : t -> Vec.t -> Vec.t -> unit
(** [mul_vec_into a x y] sets [y <- A x] (no aliasing). *)

val diagonal : t -> float array
(** Diagonal entries (zero when absent). *)

val symgs_sweep : t -> b:Vec.t -> x:Vec.t -> unit
(** One symmetric Gauss-Seidel sweep (forward then backward) on [A x = b],
    in place on [x] — HPCG's smoother. Requires nonzero diagonal.
    Inherently sequential along the row order (each update reads earlier
    updates) — the scalability liability that motivates {!jacobi_sweep}
    and multi-colouring in practice. *)

val jacobi_sweep : ?omega:float -> t -> b:Vec.t -> x:Vec.t -> unit
(** One weighted-Jacobi sweep [x <- x + omega D⁻¹ (b - A x)] (default
    [omega = 2/3], the smoothing-optimal weight for Poisson-like problems).
    Every row update is independent — the fully parallel smoother. *)

val spmv_flops : t -> float
(** [2 nnz]. *)

val spmv_bytes : t -> float
(** Approximate memory traffic of one SpMV (values + indices + vectors),
    used by the roofline model. *)

val is_symmetric : ?tol:float -> t -> bool
(** Kept as the test oracle for the symmetric stencils. *)
