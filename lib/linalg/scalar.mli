(** Scalar arithmetic at emulated precision.

    The host only computes in IEEE double, so reduced precision is emulated
    the standard way: values are kept as doubles that are exactly
    representable in the target format, and every operation rounds its double
    result back to the target format. This gives bit-faithful fp32 (and
    faithfully rounded fp16/bf16) *arithmetic*, which is what the
    mixed-precision accuracy claims depend on; the *speed* benefit of narrow
    types is modelled separately by the machine simulator. *)

module type S = sig
  val name : string

  val eps : float
  (** Unit roundoff of the format. *)

  val round : float -> float
  (** Round a double to the nearest representable value of the format. *)

  val add : float -> float -> float
  val sub : float -> float -> float
  val mul : float -> float -> float
  val div : float -> float -> float
  val sqrt : float -> float
end

module Fp64 : S
(** Native double; [round] is the identity. *)

module Fp32 : S
(** IEEE single precision via [Int32] bit conversion (round to nearest
    even, exact). *)

module Fp16 : S
(** IEEE half precision (binary16) with round-to-nearest-even, gradual
    underflow and saturation to infinity. *)

module Bf16 : S
(** bfloat16: fp32 truncated to an 8-bit mantissa with round-to-nearest-even. *)

val of_name : string -> (module S)
(** ["fp64" | "fp32" | "fp16" | "bf16"]; raises [Invalid_argument]
    otherwise. *)
