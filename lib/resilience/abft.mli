(** Algorithm-based fault tolerance (Huang-Abraham checksums).

    Checkpointing every datum is too expensive at exascale; for linear
    algebra the cheaper route is to carry checksum rows/columns through the
    computation and use the preserved invariants to detect, locate and
    correct corrupted entries — O(n²) protection for O(n³) kernels. *)

open Xsc_linalg

(** {1 Fully-checksummed GEMM: detect AND correct a single error} *)

type protected_product = {
  full : Mat.t;  (** [(m+1) x (n+1)]: C with a checksum row and column *)
  m : int;
  n : int;
}

val gemm_protected : Mat.t -> Mat.t -> protected_product
(** Multiply with checksum encoding: [\[A; eᵀA\] * \[B, Be\]] — the checksum
    relations hold on the product by construction. *)

val verify_product : ?tol:float -> protected_product -> (int * int) list
(** Coordinates where row and column checksum mismatches intersect — empty
    when consistent. [tol] scales with the matrix norm. Backs FIG-6's
    protected GEMM through {!correct_product}; exported so tests check the
    located coordinates. *)

val correct_product : ?tol:float -> protected_product -> int
(** Correct every located single-entry error in place (returns the number of
    corrections). Multiple errors in the same row AND column are beyond the
    code's reach, as usual for Huang-Abraham. *)

val decode_product : protected_product -> Mat.t
(** Strip the checksums. *)

(** {1 Checksum-verified Cholesky: detect, locate, recover} *)

val verify_cholesky : ?tol:float -> l:Mat.t -> Mat.t -> int option
(** O(n²) post-condition check of [A = L Lᵀ] through checksum vectors
    (a plain and a weighted probe): [None] when consistent, otherwise
    [Some r] where [r] is the first row whose checksum fails. A single
    corrupted entry [L(i,j)] surfaces at [r <= j <= i], so every row
    below [r - 1] may depend on the damage. *)

val recover_cholesky_rows : a:Mat.t -> l:Mat.t -> from:int -> unit
(** Lineage recovery: recompute rows [from .. n-1] of [L] by row-oriented
    Cholesky from [A] and the intact rows above [from]. Repairs any set of
    corruptions confined to those rows at a cost proportional to the
    damaged fraction of the factorization (instead of a full O(n³)
    refactorization). *)

val overhead_model : n:int -> nb:int -> float
(** Relative flop overhead of carrying checksums through a tiled
    factorization: one extra checksum tile row ≈ [1/(n/nb)]. *)
