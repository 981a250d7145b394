(** Level-2/3 BLAS subset in double precision.

    These are the hot kernels of the tile algorithms; they operate in place
    on {!Mat.t} storage with explicit transpose/side/uplo flags following
    BLAS conventions. Dimension mismatches raise [Invalid_argument].

    Every level-2/3 call tallies its flop count and modelled memory traffic
    into the {!Xsc_obs.Metrics} registry under
    [blas.<kernel>.{calls,flops,bytes}] (three sharded atomic adds per call
    — negligible next to the O(n²)–O(n³) arithmetic). Dividing a run's
    flops delta by its wall time gives achieved GFLOP/s; flops/bytes gives
    the arithmetic intensity placing the kernel on the roofline. *)

type trans = NoTrans | Trans
type side = Left | Right
type uplo = Upper | Lower
type diag = Unit | NonUnit

val gemm : ?transa:trans -> ?transb:trans -> alpha:float -> Mat.t -> Mat.t -> beta:float -> Mat.t -> unit
(** [gemm ~alpha a b ~beta c] computes [C <- alpha op(A) op(B) + beta C].
    NoTrans/NoTrans and NoTrans/Trans shapes with every dimension at least
    {!Kernel.cutoff} run on the packed, cache-blocked {!Kernel}; everything
    else uses the reference loop nests of {!gemm_unblocked}. The two paths
    associate the k-summation differently, so results may differ by normal
    rounding (order 1e-14 relative), never more. *)

val gemm_unblocked : ?transa:trans -> ?transb:trans -> alpha:float -> Mat.t -> Mat.t -> beta:float -> Mat.t -> unit
(** The reference (naive loop nest) gemm: the oracle blocked gemm is tested
    against, and the baseline the JSON bench reports speedups over. *)

val gemm_new : ?transa:trans -> ?transb:trans -> Mat.t -> Mat.t -> Mat.t
(** Allocating convenience: [op(A) op(B)]. *)

val gemv : ?trans:trans -> alpha:float -> Mat.t -> Vec.t -> beta:float -> Vec.t -> unit
(** [y <- alpha op(A) x + beta y]. *)

val syrk : ?uplo:uplo -> ?trans:trans -> alpha:float -> Mat.t -> beta:float -> Mat.t -> unit
(** Symmetric rank-k update touching only the [uplo] triangle of [C]:
    [C <- alpha A Aᵀ + beta C] ([NoTrans]) or [alpha Aᵀ A + beta C]
    ([Trans]). Default lower, matching the Cholesky kernels. *)

val trsm : ?side:side -> ?uplo:uplo -> ?trans:trans -> ?diag:diag -> alpha:float -> Mat.t -> Mat.t -> unit
(** Triangular solve with multiple right-hand sides, in place on the second
    argument: [B <- alpha op(A)⁻¹ B] ([Left]) or [B <- alpha B op(A)⁻¹]
    ([Right]). *)

val trsv : ?uplo:uplo -> ?trans:trans -> ?diag:diag -> Mat.t -> Vec.t -> unit
(** Triangular solve with a single right-hand side, in place. *)

val gemm_flops : int -> int -> int -> float
(** Flop count of an [m x k] by [k x n] multiply ([2 m n k]), used by the
    simulator's task weights and the Gflop/s reports. *)

val tally_kernel : string -> flops:float -> bytes:float -> unit
(** Find-or-create flop/byte accounting for a kernel outside this module:
    increments [blas.<kernel>.{calls,flops,bytes}] in the metrics registry.
    Counters are created on first call, so kernels that never run leave no
    zero-valued entries in the registry export. Used by {!Pblas}. *)
