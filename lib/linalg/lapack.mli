(** LAPACK-style factorizations in double precision.

    These are both the sequential baselines of the experiments and the
    per-tile kernels of the tiled algorithms in [Xsc_core]. Factorizations
    operate in place, following LAPACK storage conventions. *)

exception Singular of int
(** Raised with the offending pivot/diagonal index when a factorization
    breaks down. *)

val potrf : Mat.t -> unit
(** In-place lower Cholesky: on return the lower triangle holds [L] with
    [A = L Lᵀ]; the strict upper triangle is left untouched.
    Raises {!Singular} if a pivot is not positive. *)

val potrs : Mat.t -> Vec.t -> unit
(** Solve [A x = b] given the {!potrf} factor (in place on [b]). *)

val getrf : Mat.t -> int array
(** In-place LU with partial pivoting; returns the pivot array [ipiv] where
    row [i] was swapped with row [ipiv.(i)]. [L] (unit diagonal) is below the
    diagonal, [U] on and above. *)

val getrf_blocked : ?nb:int -> Mat.t -> int array
(** Right-looking blocked LU with partial pivoting (the HPL algorithm):
    unblocked panel factorization, row interchanges applied across the
    trailing matrix, TRSM on the block row, GEMM on the trailing submatrix.
    Produces the same factorization as {!getrf} (identical pivots); the
    blocking moves most flops into GEMM. Default [nb = 64]. *)

val getrf_nopiv : Mat.t -> unit
(** LU without pivoting — valid for diagonally dominant or otherwise safe
    matrices; this is the variant the tiled LU uses per tile. *)

val getrs : Mat.t -> int array -> Vec.t -> unit
(** Solve [A x = b] from {!getrf} factors (in place on [b]). *)

val getrs_nopiv : Mat.t -> Vec.t -> unit

val laswp : Mat.t -> int array -> unit
(** Apply the {!getrf} row interchanges to a matrix (forward order). *)

val geqrf : Mat.t -> float array
(** In-place Householder QR of an [m x n] matrix with [m >= n]: [R] in the
    upper triangle, reflector vectors below the diagonal ([v0 = 1] implicit);
    returns [tau]. *)

val ormqr : trans:Blas.trans -> a:Mat.t -> tau:float array -> Mat.t -> unit
(** Apply [Q] (or [Qᵀ]) from {!geqrf} factors to a matrix, from the left,
    in place. *)

val orgqr : a:Mat.t -> tau:float array -> Mat.t
(** Materialise the thin [Q] ([m x n]) from {!geqrf} factors. *)

val gels : Mat.t -> Vec.t -> Vec.t
(** Least-squares solve of an overdetermined system via QR; does not modify
    its arguments. Kept as the least-squares test oracle for
    [Solver.solve_ls] and the tiled QR. *)

val chol_solve : Mat.t -> Vec.t -> Vec.t
(** Convenience: copy, factor, solve an SPD system. *)

val lu_solve : Mat.t -> Vec.t -> Vec.t
(** Convenience: copy, factor with pivoting, solve a general system. *)

val inverse : Mat.t -> Mat.t
(** Dense inverse via LU (used only by tests and small cost models). *)

val potrf_flops : int -> float
val getrf_flops : int -> float
val geqrf_flops : int -> int -> float
(** Standard flop counts ([n³/3], [2n³/3], [2mn² - 2n³/3]) used for
    Gflop/s reporting and simulator task weights. *)
