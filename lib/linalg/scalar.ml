module type S = sig
  val name : string
  val eps : float
  val round : float -> float
  val add : float -> float -> float
  val sub : float -> float -> float
  val mul : float -> float -> float
  val div : float -> float -> float
  val sqrt : float -> float
end

module Fp64 : S = struct
  let name = "fp64"
  let eps = epsilon_float /. 2.0
  let round x = x
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )
  let div = ( /. )
  let sqrt = Stdlib.sqrt
end

module Make_rounded (R : sig
  val name : string
  val eps : float
  val round : float -> float
end) : S = struct
  let name = R.name
  let eps = R.eps
  let round = R.round
  let add a b = R.round (a +. b)
  let sub a b = R.round (a -. b)
  let mul a b = R.round (a *. b)
  let div a b = R.round (a /. b)
  let sqrt a = R.round (Stdlib.sqrt a)
end

module Fp32 = Make_rounded (struct
  let name = "fp32"
  let eps = 0x1.0p-24

  (* Int32.bits_of_float performs the double->single conversion with
     round-to-nearest-even, so the round trip is exactly fp32 rounding. *)
  let round x = Int32.float_of_bits (Int32.bits_of_float x)
end)

(* binary16: 1 sign, 5 exponent (bias 15), 10 mantissa bits. Implemented by
   examining the double's bit pattern; round-to-nearest-even throughout. *)
let round_fp16 x =
  if Float.is_nan x || x = 0.0 then x
  else begin
    let sign = if x < 0.0 then -1.0 else 1.0 in
    let mag = abs_float x in
    if mag = infinity then x
    else if mag >= 65520.0 then sign *. infinity (* halfway to first unrepresentable *)
    else begin
      (* Quantum of the target format at this magnitude: 2^-24 in the
         subnormal range, else ulp = 2^(e - 10) where mag is in
         [2^e, 2^(e+1)). frexp gives the exponent exactly. *)
      let ulp =
        if mag < 0x1.0p-14 then 0x1.0p-24
        else begin
          let _, e = Float.frexp mag in
          Float.ldexp 1.0 (e - 11)
        end
      in
      (* k fits in ~11 bits, so floor/fraction arithmetic below is exact *)
      let k = mag /. ulp in
      let fl = floor k in
      let frac = k -. fl in
      let rounded =
        if frac > 0.5 then fl +. 1.0
        else if frac < 0.5 then fl
        else if Float.rem fl 2.0 = 0.0 then fl
        else fl +. 1.0
      in
      let r = rounded *. ulp in
      if r >= 65520.0 then sign *. infinity else sign *. r
    end
  end

module Fp16 = Make_rounded (struct
  let name = "fp16"
  let eps = 0x1.0p-11
  let round = round_fp16
end)

(* bfloat16: round the fp32 bit pattern to 8 mantissa bits (nearest even). *)
let round_bf16 x =
  if Float.is_nan x then x
  else begin
    let bits = Int32.bits_of_float x in
    let bits = Int32.logand bits 0xFFFFFFFFl in
    let lower = Int32.to_int (Int32.logand bits 0xFFFFl) in
    let upper = Int32.shift_right_logical bits 16 in
    let round_up =
      lower > 0x8000 || (lower = 0x8000 && Int32.to_int (Int32.logand upper 1l) = 1)
    in
    let upper = if round_up then Int32.add upper 1l else upper in
    Int32.float_of_bits (Int32.shift_left upper 16)
  end

module Bf16 = Make_rounded (struct
  let name = "bf16"
  let eps = 0x1.0p-8
  let round = round_bf16
end)

let of_name = function
  | "fp64" -> (module Fp64 : S)
  | "fp32" -> (module Fp32 : S)
  | "fp16" -> (module Fp16 : S)
  | "bf16" -> (module Bf16 : S)
  | s -> invalid_arg ("Scalar.of_name: unknown format " ^ s)
