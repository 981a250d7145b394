(** Compute-node model: per-precision arithmetic rates, memory bandwidth and
    power. The fp32/fp16 rate multipliers encode the hardware speedups that
    the mixed-precision experiment models (the arithmetic itself is emulated
    exactly in [Xsc_linalg.Scalar]). *)

type precision = FP64 | FP32 | FP16

type t = {
  cores : int;
  flops_fp64 : float;  (** per-core double-precision flop/s *)
  fp32_mult : float;  (** fp32 rate = [fp32_mult * flops_fp64] (typically 2) *)
  fp16_mult : float;  (** fp16 rate multiplier (tensor-core-like, e.g. 4-8) *)
  mem_bandwidth : float;  (** bytes/s per node *)
  watts : float;  (** node power at load *)
}

val create :
  ?fp32_mult:float -> ?fp16_mult:float -> cores:int -> flops_fp64:float ->
  mem_bandwidth:float -> watts:float -> unit -> t

val core_rate : t -> precision -> float
val node_rate : t -> precision -> float

val machine_balance : t -> float
(** Node fp64 flop/s per byte/s of memory bandwidth — the quantity whose
    historical growth explains the HPL/HPCG gap. *)

val roofline_rate : t -> precision -> intensity:float -> float
(** Attainable flop/s for a kernel of given arithmetic intensity
    (flops/byte): [min(peak, intensity * bandwidth)]. *)

val precision_name : precision -> string
