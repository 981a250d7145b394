(** Symmetric eigenproblems.

    The classical two-phase dense algorithm: Householder tridiagonalization
    ([A = Q T Qᵀ]) followed by the implicit-shift QL iteration on the
    tridiagonal ([tql2]), accumulating the transformations for eigenvectors.
    This is the kernel under spectral analysis, vibration/stability
    computations and the condition-number diagnostics used elsewhere in the
    library. *)

val symmetric : Mat.t -> float array * Mat.t
(** Full eigendecomposition of a symmetric matrix: ascending eigenvalues
    and the orthonormal eigenvector matrix (column [i] pairs with
    eigenvalue [i]). Symmetry is enforced by averaging. *)

val eigenvalues : Mat.t -> float array

val condition_spd : Mat.t -> float
(** 2-norm condition number of an SPD matrix ([lambda_max / lambda_min]);
    raises [Invalid_argument] if the smallest eigenvalue is not positive.
    Kept as the test oracle for {!Gallery.spd_with_cond}, whose
    conditioning FIG-4 sweeps. *)
