type precision = FP64 | FP32 | FP16

type t = {
  cores : int;
  flops_fp64 : float;
  fp32_mult : float;
  fp16_mult : float;
  mem_bandwidth : float;
  watts : float;
}

let create ?(fp32_mult = 2.0) ?(fp16_mult = 4.0) ~cores ~flops_fp64 ~mem_bandwidth ~watts
    () =
  if cores <= 0 then invalid_arg "Node.create: cores must be positive";
  if flops_fp64 <= 0.0 || mem_bandwidth <= 0.0 then
    invalid_arg "Node.create: rates must be positive";
  { cores; flops_fp64; fp32_mult; fp16_mult; mem_bandwidth; watts }

let core_rate t = function
  | FP64 -> t.flops_fp64
  | FP32 -> t.flops_fp64 *. t.fp32_mult
  | FP16 -> t.flops_fp64 *. t.fp16_mult

let node_rate t p = core_rate t p *. float_of_int t.cores

let machine_balance t = node_rate t FP64 /. t.mem_bandwidth

let roofline_rate t p ~intensity =
  if intensity <= 0.0 then invalid_arg "Node.roofline_rate: intensity must be positive";
  min (node_rate t p) (intensity *. t.mem_bandwidth)

let precision_name = function FP64 -> "fp64" | FP32 -> "fp32" | FP16 -> "fp16"
