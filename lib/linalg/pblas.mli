(** Packed-tile BLAS/LAPACK microkernels (C stubs, unit-stride).

    Every kernel operates on one contiguous [nb x nb] row-major tile inside
    a flat Bigarray buffer, addressed as a (buffer, element-offset) pair.
    Contiguity is the point: the inner loops are unit-stride with
    independent accumulator chains, so the C compiler vectorizes them
    without gathers and — because the build passes [-ffp-contract=off] and
    no [-ffast-math] — without changing any rounding.

    Bitwise contract (float64): for every output element, each kernel
    performs the same floating-point operations in the same order as its
    OCaml counterpart in {!Blas} / {!Lapack}: gemm accumulates k-ascending
    then does one [c += alpha*acc]; syrk does [c = alpha*acc + beta*c];
    trsm runs the [Blas.trsm] branch's l-ascending subtractions (zero
    coefficients skipped) then its divide (skipped on a unit diagonal or a
    coefficient of 1.0); potrf runs [Lapack.potrf]'s k-ascending chain then
    its sqrt or divide; getrf_nopiv is a literal transcription. Only the
    order in which elements are visited differs: gemm and syrk run register
    tiles of independent accumulators, trsm and potrf one register-blocked
    triangular sweep whose vector lanes are different elements. So packed
    factorizations are bit-identical to the strided reference. The float32
    kernels compute in genuine single precision — half the bytes moved per
    flop, double the SIMD lanes — and feed the real mixed-precision path in
    [Precision.Ir].

    [gemm_nt] and [syrk_ln] (when they pack), [trsm_rlt], [trsm_ru] and
    [potrf] transpose through a per-thread scratch tile; they raise
    [Out_of_memory], having written nothing, when it cannot be allocated.

    All kernel wrappers tally flops/bytes through {!Blas.tally_kernel} under
    [blas.{pgemm,psyrk,ptrsm,ppotrf,pgetrf}] (f64) and
    [blas.{sgemm,ssyrk,strsm,spotrf}] (f32). *)

type f64 = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type f32 = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

exception Singular of int
(** Raised by [potrf] (non-positive pivot) and [getrf_nopiv] (zero pivot)
    with the failing index within the tile. *)

(** {1 Runtime kernel configuration}

    The compute kernels (gemm / syrk / trsm) dispatch through a per-kernel,
    per-precision config record: micro-tile shape (how many independent
    accumulator chains run concurrently), pack strategy for the operands
    read along [k], and optional software prefetch. Every variant performs
    the identical floating-point operations in the identical order per
    output element, so changing the config changes speed only — results
    stay bitwise-identical. The autotuner ({!Xsc_autotune.Kernel_tune})
    searches this space and {!Kconfig} persists the winner per host. *)

type kernel = Gemm_nn | Gemm_nt | Syrk_ln | Trsm_rlt
(** The kernels with a config record. [Trsm_rlt]'s is ignored: every trsm
    and [potrf] run one register-blocked triangular sweep, and
    [getrf_nopiv] has no variants. *)

type prec = F64 | F32

type kcfg = { shape : int; pack : bool; prefetch : bool }
(** [shape] indexes {!shapes}. [pack] selects transpose-to-scratch (true,
    the historical behavior) vs direct row-dot access for the NT and syrk
    paths; gemm_nn and trsm ignore it. [syrk_ln] runs a row-grouped shape
    ([mr > 1]) as the 8 x 16 register tile over the lower block triangle of
    the packed transpose, so it always packs; a [1 x nr] shape runs
    [nr] chains along one row. *)

val shapes : (int * int) array
(** The (mr, nr) micro-tile family compiled into the C stubs. *)

val default_cfg : kcfg
(** The untuned default: the 8 x 16 register-blocked micro-tile (its
    128 accumulators live in 64-byte vector registers: sixteen of 8
    doubles, eight of 16 floats), pack, no prefetch. gemm and syrk run it;
    trsm ignores the config. Like every shape it is bitwise identical to
    the others. *)

val all_kernels : kernel list
val all_precs : prec list
val kernel_name : kernel -> string
val prec_name : prec -> string
val kernel_of_name : string -> kernel option
val prec_of_name : string -> prec option

val set_cfg : prec -> kernel -> kcfg -> unit
(** Install a config. Raises [Invalid_argument] on an out-of-range shape.
    Not synchronised: call at startup or from a single-threaded tuner, not
    while other domains are inside a kernel. *)

val cfg : prec -> kernel -> kcfg

val reset_cfgs : unit -> unit
(** Restore {!default_cfg} for every kernel and precision. *)

(** {1 Flop counts} (used by the tuner and benchmarks to convert measured
    seconds into rates) *)

val gemm_flops : int -> float
val syrk_flops : int -> float
val trsm_flops : int -> float
val potrf_flops : int -> float
val getrf_flops : int -> float

(** Double-precision kernels. Offsets are element (not byte) offsets of the
    tile's first element; all tiles are [nb x nb] row-major. *)
module D : sig
  type buf = f64

  val gemm_nn : alpha:float -> buf -> int -> buf -> int -> buf -> int -> nb:int -> unit
  (** [gemm_nn ~alpha a oa b ob c oc ~nb]: [C += alpha A B]. *)

  val gemm_nt : alpha:float -> buf -> int -> buf -> int -> buf -> int -> nb:int -> unit
  (** [C += alpha A Bᵀ] (the Cholesky update shape). *)

  val syrk_ln : alpha:float -> buf -> int -> beta:float -> buf -> int -> nb:int -> unit
  (** Lower triangle only: [C <- alpha A Aᵀ + beta C]. *)

  val trsm_rlt : buf -> int -> buf -> int -> nb:int -> unit
  (** [B <- B A⁻ᵀ], [A] lower triangular non-unit (Cholesky panel). *)

  val trsm_llu : buf -> int -> buf -> int -> nb:int -> unit
  (** [B <- A⁻¹ B], [A] unit lower triangular (LU row panel). *)

  val trsm_ru : buf -> int -> buf -> int -> nb:int -> unit
  (** [B <- B A⁻¹], [A] upper triangular non-unit (LU column panel). *)

  val potrf : buf -> int -> nb:int -> unit
  (** In-place lower Cholesky of one tile; the strict upper triangle is
      not touched. Raises {!Singular} with [Lapack.potrf]'s failing column;
      the tile's contents are then unspecified. *)

  val getrf_nopiv : buf -> int -> nb:int -> unit
  (** In-place unpivoted LU of one tile; raises {!Singular}. *)

  val pack_tiles :
    float array -> m:int -> buf -> n:int -> nb:int -> lower:bool -> unit
  (** [pack_tiles src ~m buf ~n ~nb ~lower] packs the row-major [m x m]
      [src] into the tile-major [n x n] [buf] ([m <= n], [n] a multiple of
      [nb]), padding with the identity: each source row run is one
      [memcpy], the rest of the row is zero-filled, and a pad row is zero
      except its diagonal element. Writes every element of each tile it
      packs: all of them, or with [lower] only the tiles on and below the
      diagonal. Exact (a copy). Raises [Invalid_argument] on a geometry
      mismatch. *)
end

(** Single-precision kernels: genuine C [float] arithmetic end to end. The
    subset needed by the packed float32 Cholesky. *)
module S : sig
  type buf = f32

  val gemm_nn : alpha:float -> buf -> int -> buf -> int -> buf -> int -> nb:int -> unit
  val gemm_nt : alpha:float -> buf -> int -> buf -> int -> buf -> int -> nb:int -> unit
  val syrk_ln : alpha:float -> buf -> int -> beta:float -> buf -> int -> nb:int -> unit
  val trsm_rlt : buf -> int -> buf -> int -> nb:int -> unit
  val potrf : buf -> int -> nb:int -> unit
end
