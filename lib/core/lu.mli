(** Tiled LU factorization (without pivoting) as a task DAG.

    Tile LU trades the global pivot search — a scalability bottleneck,
    because it synchronises the whole panel — for a no-pivoting factorization
    that is valid for diagonally dominant (and most well-conditioned
    random-SPD-shifted) matrices; this is the standard trade the tile
    algorithms make (PLASMA offers incremental pivoting for the general
    case — here the partial-pivoting LAPACK path is the general fallback,
    see {!Xsc_linalg.Lapack.getrf}).

    As for {!Cholesky}, the program is written once ({!panel},
    {!update}) with op bodies, and packed tiles (the solve path) and
    strided tiles (the test oracle) are interpreters of it. *)

open Xsc_linalg

val kernel_flops : int -> float * float * float
(** [(getrf, trsm, gemm)] flops of one [nb x nb] tile kernel. *)

val panel :
  nt:int -> nb:int -> int ->
  (Xsc_runtime.Task.op -> float -> Xsc_runtime.Task.access list -> unit) -> unit
(** Step [k]'s panel in program order: [Getrf k], [Trsm_l (k, j)] for
    [j > k], then [Trsm_u (i, k)] for [i > k]; see {!Cholesky.panel}. *)

val update :
  nt:int -> nb:int -> int ->
  (Xsc_runtime.Task.op -> float -> Xsc_runtime.Task.access list -> unit) -> unit
(** Step [k]'s trailing update: [Gemm (i, j, k)] for [i, j > k], row-major.
    Emits nothing at [k = nt - 1]. *)

val tasks_ops : nt:int -> nb:int -> Runtime_api.task list
(** The whole program, op bodies only; see {!Cholesky.tasks_ops}. *)

val dag_ops : nt:int -> nb:int -> Runtime_api.dag

val tile_interp : Xsc_tile.Tile.t -> Xsc_runtime.Task.op -> unit
(** Interpreter binding op coordinates to strided tiles. An oracle, not a
    solve path: test_runtime's executor properties run it. Raises
    [Invalid_argument "Lu.tile_interp: matrix not square"] on a non-square
    tiling. *)

val factor : ?exec:Runtime_api.exec -> Xsc_tile.Tile.t -> unit
(** In place, through {!tile_interp}: unit-lower [L] below the diagonal,
    [U] on and above. Raises [Lapack.Singular] on a zero pivot. The
    strided oracle of {!factor_packed}: test_packed and test_core check
    the packed factor against it bit for bit; no solve path runs it. *)

val packed_interp : Xsc_tile.Packed.D.t -> Xsc_runtime.Task.op -> unit
(** Interpreter binding op coordinates to packed tile storage. *)

val factor_packed : ?exec:Runtime_api.exec -> Xsc_tile.Packed.D.t -> unit
(** Unpivoted LU of a packed matrix in place through the op-encoded DAG;
    bitwise identical to {!factor} on the same input for every executor.
    Raises [Pblas.Singular] on a zero pivot. *)

val strictly_diag_dominant : Mat.t -> bool
(** Every row's diagonal entry exceeds the sum of its off-diagonal
    magnitudes, so unpivoted LU is stable. The routing predicate of
    [Solver.solve_general] and of the serve path's LU payloads. *)

val flops : nt:int -> nb:int -> float
val task_count : nt:int -> int
