(** Cache-blocked, register-tiled GEMM microkernel (the BLIS/GotoBLAS
    structure in pure OCaml).

    The triple loop is restructured into three cache-level blockings —
    [NC]-wide column panels of B (shared across row panels), [KC]-deep rank
    updates, [MC]-tall row panels of A — with both operands packed into
    contiguous strip-major buffers so the innermost [MR]x[NR] microkernel
    streams them with unit stride and keeps its C accumulators in
    registers. Packing buffers are cached per domain, so tile kernels
    running on different workers never share or reallocate them.

    {!Blas.gemm} routes its NoTrans cases here above {!cutoff}; call
    {!Blas.gemm} rather than this module unless you are benchmarking the
    kernel itself. *)

val mc : int
(** A row-panel height: an [MC x KC] A pack stays L2-resident. Exported so
    a test checks that it is a multiple of {!mr}. *)

val nc : int  (** B column-panel width of one packed B pack *)

val mr : int  (** microkernel rows: C accumulator tile height *)

val nr : int  (** microkernel cols: C accumulator tile width *)

val cutoff : int
(** Minimum of [m], [n], [k] at which packing pays for itself; below it
    {!Blas.gemm} keeps the naive loop nest. *)

val add_matmul : trans_b:bool -> alpha:float -> Mat.t -> Mat.t -> Mat.t -> unit
(** [add_matmul ~trans_b ~alpha a b c] computes [C <- C + alpha A op(B)]
    with [op] transposing iff [trans_b]. Any beta scaling of [C] is the
    caller's job. Raises [Invalid_argument] on dimension mismatch. *)
