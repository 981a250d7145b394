(** Dense row-major matrices.

    The storage is a single unboxed [float array]; element [(i, j)] lives at
    [data.(i * cols + j)]. Blocks are exchanged by explicit copies
    ({!blit_block}) rather than views — the tiled layer owns contiguous
    per-tile storage, which is the whole point of tile algorithms. *)

type t = private { rows : int; cols : int; data : float array }

val create : int -> int -> t
(** Zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t
val identity : int -> t
val copy : t -> t

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val dims : t -> int * int
val transpose : t -> t

val row : t -> int -> float array
val col : t -> int -> float array
val diag : t -> float array

val sub_block : t -> row:int -> col:int -> rows:int -> cols:int -> t
(** Copy of a rectangular block; bounds-checked. *)

val blit_block : src:t -> dst:t -> src_row:int -> src_col:int -> dst_row:int -> dst_col:int -> rows:int -> cols:int -> unit

val map : (float -> float) -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t

val mul_vec : t -> Vec.t -> Vec.t
(** Dense matrix-vector product (convenience; {!Blas.gemv} is the tuned
    version). *)

val frobenius : t -> float
val norm_inf : t -> float
(** Maximum absolute row sum. *)

val max_abs : t -> float
val dist_max : t -> t -> float
(** Entrywise max-norm of the difference. *)

val approx_equal : ?tol:float -> t -> t -> bool

val random : Xsc_util.Rng.t -> int -> int -> t
(** Entries uniform in [\[-1, 1)]. *)

val random_spd : Xsc_util.Rng.t -> int -> t
(** Random symmetric positive definite matrix ([B Bᵀ + n I]); condition
    number is modest so factorizations in reduced precision stay stable. *)

val random_diag_dominant : Xsc_util.Rng.t -> int -> t
(** Random strictly row-diagonally-dominant matrix — safe for LU without
    pivoting (the tiled LU variant). *)

val symmetrize : t -> t
(** [(A + Aᵀ) / 2]. *)

val lower : ?unit_diag:bool -> t -> t
(** Lower-triangular part (copy); with [unit_diag] the diagonal is set
    to 1. *)

val upper : t -> t
