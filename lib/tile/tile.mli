(** Tiled matrix layout.

    A tiled matrix stores each [nb x nb] tile contiguously, which is what
    lets a tile algorithm hand independent tiles to independent tasks with no
    false sharing and cache-contained kernels — the storage change Dongarra's
    talk credits for PLASMA's scalability. Dimensions must be exact multiples
    of [nb] (callers pad; see {!pad_to}). *)

open Xsc_linalg

type t = {
  rows : int;
  cols : int;
  nb : int;  (** tile edge *)
  mt : int;  (** tile rows = rows / nb *)
  nt : int;  (** tile cols = cols / nb *)
  tiles : Mat.t array array;  (** [tiles.(i).(j)] is tile (i, j), each [nb x nb] *)
}

val create : rows:int -> cols:int -> nb:int -> t
(** Zero tiled matrix. Raises [Invalid_argument] unless [nb] divides both
    dimensions. *)

val of_mat : nb:int -> Mat.t -> t
val to_mat : t -> Mat.t
val copy : t -> t
val tile : t -> int -> int -> Mat.t
(** The tile at block coordinates (bounds-checked). The returned matrix is
    the live storage — kernels mutate it in place. *)

val get : t -> int -> int -> float
(** Element access by global index (for tests; slow path). *)

val set : t -> int -> int -> float -> unit

val pad_to : nb:int -> Mat.t -> Mat.t * int
(** [pad_to ~nb a] embeds [a] in the smallest multiple-of-[nb] square with an
    identity pad on the diagonal (preserving positive-definiteness and
    invertibility); returns the padded matrix and the original size. *)

val tile_vec : nb:int -> Vec.t -> Vec.t array
(** Split a vector into [nb]-chunks (exact multiple required). *)

val untile_vec : Vec.t array -> Vec.t

val frobenius : t -> float

val approx_equal : ?tol:float -> t -> t -> bool
