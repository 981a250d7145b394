(** Tile-major packed matrix storage.

    One flat Bigarray holds the whole [n x n] matrix; tile [(i, j)] is the
    contiguous slice starting at element [((i*nt)+j) * nb*nb], row-major
    inside the tile. Kernels run unit-stride over operand tiles — the data
    layout the strided {!Tile.t} (array-of-row-major-views) cannot offer.

    The float64 sequential drivers replay the exact program order of the
    lib/core task generators using {!Xsc_linalg.Pblas} kernels, so packed
    factorizations are bitwise identical to the strided reference. The
    float32 module is the real reduced-precision storage feeding
    [Precision.Ir]: quantization happens on pack (store rounds to nearest
    single), and [potrs] reads the f32 factor with double accumulation. *)

(** Double-precision packed matrix. *)
module D : sig
  type t = { n : int; nb : int; nt : int; buf : Xsc_linalg.Pblas.f64 }

  val create : n:int -> nb:int -> t
  (** Zero-filled packed matrix; [n] must be a multiple of [nb]. *)

  val copy : t -> t

  val off : t -> int -> int -> int
  (** Element offset of tile [(i, j)]'s first element in [buf]. *)

  val get : t -> int -> int -> float
  (** Element access by global (row, col) index. *)

  val set : t -> int -> int -> float -> unit

  val of_mat : nb:int -> Xsc_linalg.Mat.t -> t
  (** Pack a square dense matrix. Exact (a copy, no rounding). *)

  val pack_padded : ?lower:bool -> t -> Xsc_linalg.Mat.t -> unit
  (** [pack_padded p a] packs a square [a] no larger than [p] into [p],
      padding with the identity: a pad element is [1.0] on the diagonal and
      [0.0] elsewhere. Each row run is one [memcpy] (C stub). Writes every
      element of every tile it packs, so a dirty recycled buffer is fine.
      With [~lower:true] only the tiles on and below the diagonal are
      written, which is all a Cholesky factorization and {!potrs} read;
      the tiles above keep whatever the buffer held. The pad is harmless
      for Cholesky and for diagonally dominant LU, and solves to zero
      against a zero-padded right-hand side. *)

  val to_mat : t -> Xsc_linalg.Mat.t
  (** Unpack; [to_mat (of_mat ~nb a)] round-trips bitwise. *)

  val of_tiled : Tile.t -> t
  (** Pack from strided tile storage (square only). Exact. *)

  val to_tiled : t -> Tile.t

  val potrf : t -> unit
  (** Sequential packed tiled Cholesky (lower), written out independently
      of the [Cholesky] task program and bitwise identical to every
      interpreter of it ([Cholesky.factor], [Cholesky.factor_packed]).
      Raises
      {!Xsc_linalg.Pblas.Singular} on a non-positive pivot. *)

  val potrs : t -> Xsc_linalg.Vec.t -> unit
  (** [potrs l y] overwrites [y] with the solution of [L Lᵀ x = y] against
      the packed Cholesky factor (no unpack), like
      {!Xsc_linalg.Lapack.potrs}. Every element follows the order of
      {!Xsc_linalg.Blas.trsv}, so the result is bitwise equal to
      [Lapack.potrs (to_mat l) y]. Reads only tiles on and below the
      diagonal. Allocates nothing. It is {!potrs_fwd} over the blocks
      ascending, then {!potrs_bwd} over them descending. *)

  val potrs_fwd : t -> Xsc_linalg.Vec.t -> int -> unit
  (** [potrs_fwd l y bi]: the rows of block [bi] of the forward sweep
      [L z = y], ascending. Reads tiles [(bi, 0..bi)] and the blocks of [y]
      before [bi], which must already be forward-final; writes block [bi].
      Raises [Invalid_argument] on a wrong [y] length or block index. *)

  val potrs_bwd : t -> Xsc_linalg.Vec.t -> int -> unit
  (** [potrs_bwd l y bi]: the rows of block [bi] of the backward sweep
      [Lᵀ x = z], descending. Reads tiles [(bi..nt-1, bi)] and the blocks
      of [y] after [bi], which must already be backward-final. *)

  val getrf_nopiv : t -> unit
  (** Sequential packed tiled unpivoted LU, written out independently of
      the [Lu] task program and bitwise identical to every interpreter of
      it ([Lu.factor], [Lu.factor_packed]). Raises
      {!Xsc_linalg.Pblas.Singular} on a zero pivot. *)

  val getrs_nopiv : t -> Xsc_linalg.Vec.t -> unit
  (** [getrs_nopiv lu y] overwrites [y] with the solution of [L U x = y]
      against the packed unpivoted LU factor: unit-lower forward, then
      upper backward substitution, bitwise equal to
      [Blas.trsv ~diag:Unit] then [Blas.trsv ~uplo:Upper] on [to_mat lu].
      Allocates nothing. It is {!getrs_fwd} over the blocks ascending,
      then {!getrs_bwd} over them descending. *)

  val getrs_fwd : t -> Xsc_linalg.Vec.t -> int -> unit
  (** Block [bi] of the unit-lower forward sweep; reads tiles
      [(bi, 0..bi)], like {!potrs_fwd}. *)

  val getrs_bwd : t -> Xsc_linalg.Vec.t -> int -> unit
  (** Block [bi] of the upper backward sweep, descending; reads tiles
      [(bi, bi..nt-1)] and the blocks of [y] after [bi]. *)

  val gemm : alpha:float -> t -> t -> beta:float -> t -> unit
  (** Whole-matrix [C <- alpha A B + beta C] over packed tiles (all three
      matrices same [n] and [nb]). *)
end

(** Single-precision packed matrix — the real float32 path. *)
module S : sig
  type t = { n : int; nb : int; nt : int; buf : Xsc_linalg.Pblas.f32 }

  val create : n:int -> nb:int -> t

  val off : t -> int -> int -> int

  val of_mat : nb:int -> Xsc_linalg.Mat.t -> t
  (** Pack with rounding to nearest float32 (the quantization step of the
      mixed-precision pipeline). *)

  val to_mat : t -> Xsc_linalg.Mat.t
  (** Unpack, widening exactly (every float32 is a float64). *)

  val get : t -> int -> int -> float
  (** Element by global index, widened to double. *)

  val set : t -> int -> int -> float -> unit
  (** Store by global index, rounding to nearest float32 (used by the
      resilience fault injector to corrupt f32 state in place). *)

  val potrf : t -> unit
  (** Sequential packed tiled Cholesky in genuine float32 arithmetic.
      Raises {!Xsc_linalg.Pblas.Singular} on a non-positive pivot. *)

  val potrs : t -> Xsc_linalg.Vec.t -> unit
  (** [potrs l y] overwrites [y] with the solution of [L Lᵀ x = y],
      reading the float32 factor with double-precision accumulation:
      bitwise equal to [Lapack.potrs] on the exactly widened [to_mat l]. *)
end

val tuned_nb : fallback:int -> int
(** The tile size elected by this host's kernel-tuning cache
    ({!Xsc_linalg.Kconfig.current}), or [fallback] when no cache is
    loaded. Drivers with a default [nb] consult this so [xsc tune]'s
    winner reaches every packing site without threading a parameter. *)
