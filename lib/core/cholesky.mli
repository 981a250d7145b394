(** Tiled Cholesky factorization as a task DAG.

    The algorithm of the PLASMA story: [POTRF]/[TRSM]/[SYRK]/[GEMM] kernels
    on [nb x nb] tiles, with dependences inferred from tile accesses. The
    program is written once, as {!panel} and {!update}; its tasks carry
    closure-free {!Xsc_runtime.Task.op} bodies. Each storage layout is an
    interpreter of it — {!packed_interp} for packed storage, which every
    solve runs, and {!tile_interp} for strided tiles, kept as the test
    oracle — and the schedule simulator needs only its weights. *)

val kernel_flops : int -> float * float * float * float
(** [(potrf, trsm, syrk, gemm)] flops of one [nb x nb] tile kernel. *)

val panel :
  nt:int -> nb:int -> int ->
  (Xsc_runtime.Task.op -> float -> Xsc_runtime.Task.access list -> unit) -> unit
(** [panel ~nt ~nb k emit] emits step [k]'s panel in program order:
    [Potrf k], then [Trsm (k, i)] for [i > k]. [emit] receives each task's
    op, flops and tile accesses (datum [i * nt + j]). *)

val update :
  nt:int -> nb:int -> int ->
  (Xsc_runtime.Task.op -> float -> Xsc_runtime.Task.access list -> unit) -> unit
(** [update ~nt ~nb k emit] emits step [k]'s trailing update: for each
    [i > k], [Syrk (i, k)] then [Gemm (i, j, k)] for [k < j < i]. Emits
    nothing at [k = nt - 1]. *)

val tasks_ops : nt:int -> nb:int -> Runtime_api.task list
(** The whole program: {!panel} then {!update} for each [k], with
    {!Xsc_runtime.Task.op} bodies and no closures. Storage-independent —
    bind it with an interpreter. *)

val dag_ops : nt:int -> nb:int -> Runtime_api.dag

val tile_interp : Xsc_tile.Tile.t -> Xsc_runtime.Task.op -> unit
(** Interpreter binding op coordinates to strided tiles via the
    {!Xsc_linalg.Blas}/{!Xsc_linalg.Lapack} reference kernels. An oracle,
    not a solve path: test_runtime's executor and pool properties run it,
    and it is the input of [bench --overhead] (the CI tracing-overhead
    gate). Raises [Invalid_argument "Cholesky.tile_interp: matrix not
    square"] on a non-square tiling. *)

val factor : ?exec:Runtime_api.exec -> Xsc_tile.Tile.t -> unit
(** Factor in place by running {!dag_ops} through {!tile_interp} ([L] in
    the lower tiles; strictly-upper tiles are left stale, as in LAPACK).
    Default execution is sequential. Raises [Lapack.Singular] if the
    matrix is not positive definite. The strided oracle of
    {!factor_packed}: test_packed and test_core check the packed factor
    against it bit for bit; no solve path runs it. *)

val packed_interp : Xsc_tile.Packed.D.t -> Xsc_runtime.Task.op -> unit
(** Interpreter binding op coordinates to packed tile storage via the
    {!Xsc_linalg.Pblas} C kernels (bitwise-faithful to the strided path). *)

val factor_packed : ?exec:Runtime_api.exec -> Xsc_tile.Packed.D.t -> unit
(** Factor a packed matrix in place through the op-encoded DAG; bitwise
    identical to {!factor} on the same input for every executor. Raises
    [Pblas.Singular] if the matrix is not positive definite. *)

val flops : nt:int -> nb:int -> float
(** Total flops of the tiled algorithm (matches [n³/3] to leading order). *)

val task_count : nt:int -> int
(** [nt + nt(nt-1) + nt(nt-1)(nt-2)/6]: [nt] potrf, [nt(nt-1)/2] each of
    trsm and syrk, and [nt(nt-1)(nt-2)/6] gemm. *)
