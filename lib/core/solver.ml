open Xsc_linalg
module Tile = Xsc_tile.Tile
module PD = Xsc_tile.Packed.D

type options = {
  nb : int;
  exec : Runtime_api.exec;
}

(* Tuned tile size read at call time, not module init: Kconfig.autoload
   runs from executable entry points, which may happen after this module
   is initialised. *)
let tuned_nb () = Xsc_tile.Packed.tuned_nb ~fallback:64

let resolve = function
  | Some o -> o
  | None -> { nb = tuned_nb (); exec = Runtime_api.Sequential }

let with_workers ?nb n =
  let nb = match nb with Some nb -> nb | None -> tuned_nb () in
  { nb; exec = Runtime_api.Dataflow n }

let residual a x b =
  let r = Array.copy b in
  Blas.gemv ~alpha:(-1.0) a x ~beta:1.0 r;
  let denom = (Mat.norm_inf a *. Vec.norm_inf x) +. Vec.norm_inf b in
  if denom = 0.0 then 0.0 else Vec.norm_inf r /. denom

let pad_rhs b padded =
  let out = Array.make padded 0.0 in
  Array.blit b 0 out 0 (Array.length b);
  out

(* The server's tiled plan run in place (Route.tiled_plan): pack with the
   identity pad, factor under [exec], solve the zero-padded right-hand side
   with the packed sweeps and keep the head. Same kernels in the same
   per-element order, so the answer is bitwise [Route.direct]'s. *)
let packed_solve ~lower ~(factor : ?exec:Runtime_api.exec -> PD.t -> unit) ~sweeps opts a b =
  let n = a.Mat.rows in
  let padded = (n + opts.nb - 1) / opts.nb * opts.nb in
  let p = PD.create ~n:padded ~nb:opts.nb in
  PD.pack_padded ~lower p a;
  factor ~exec:opts.exec p;
  let y = pad_rhs b padded in
  sweeps p y;
  Array.sub y 0 n

let solve_spd ?opts a b =
  let opts = resolve opts in
  let n = a.Mat.rows in
  if n <> a.Mat.cols || Array.length b <> n then invalid_arg "Solver.solve_spd: dimensions";
  packed_solve ~lower:true ~factor:Cholesky.factor_packed ~sweeps:PD.potrs opts a b

let solve_general ?opts a b =
  let opts = resolve opts in
  let n = a.Mat.rows in
  if n <> a.Mat.cols || Array.length b <> n then
    invalid_arg "Solver.solve_general: dimensions";
  if Lu.strictly_diag_dominant a then
    packed_solve ~lower:false ~factor:Lu.factor_packed ~sweeps:PD.getrs_nopiv opts a b
  else begin
    let padded, _ = Tile.pad_to ~nb:opts.nb a in
    let f = Lu_inc.factor ~exec:opts.exec (Tile.of_mat ~nb:opts.nb padded) in
    let x = Lu_inc.solve f (pad_rhs b padded.Mat.rows) in
    Array.sub x 0 n
  end

let solve_ls ?opts a b =
  let opts = resolve opts in
  let m, n = Mat.dims a in
  if m < n then invalid_arg "Solver.solve_ls: system must be overdetermined";
  if m mod opts.nb <> 0 || n mod opts.nb <> 0 then
    invalid_arg "Solver.solve_ls: dimensions must be multiples of the tile size";
  if Array.length b <> m then invalid_arg "Solver.solve_ls: rhs dimension";
  let t = Tile.of_mat ~nb:opts.nb a in
  let f = Qr.factor ~exec:opts.exec t in
  Qr.solve f b

type mixed_report = {
  x : Vec.t;
  iterations : int;
  converged : bool;
  backward_error : float;
  modeled_speedup : float;
}

let solve_spd_mixed a b =
  let n = a.Mat.rows in
  let report = Xsc_precision.Ir.chol_ir32 a b in
  let high_rate = 1e9 in
  let t_mixed =
    Xsc_precision.Ir.ir_model_time ~n ~low_rate:(high_rate *. 2.0) ~high_rate
      ~iterations:report.Xsc_precision.Ir.iterations
  in
  let t_full = Xsc_precision.Ir.plain_solve_flops n /. high_rate in
  {
    x = report.Xsc_precision.Ir.x;
    iterations = report.Xsc_precision.Ir.iterations;
    converged = report.Xsc_precision.Ir.converged;
    backward_error = report.Xsc_precision.Ir.backward_error;
    modeled_speedup = t_full /. t_mixed;
  }

type protected_report = {
  x : Vec.t;
  corruption_detected : bool;
  recovered_from_row : int option;
}

let solve_spd_protected ?opts ?inject a b =
  let opts = resolve opts in
  let n = a.Mat.rows in
  if n <> a.Mat.cols || Array.length b <> n then
    invalid_arg "Solver.solve_spd_protected: dimensions";
  let padded, _ = Tile.pad_to ~nb:opts.nb a in
  let p = PD.of_mat ~nb:opts.nb padded in
  Cholesky.factor_packed ~exec:opts.exec p;
  let l = Mat.lower (PD.to_mat p) in
  (match inject with Some f -> f l | None -> ());
  let detected = Xsc_resilience.Abft.verify_cholesky ~l padded in
  let recovered_from_row =
    match detected with
    | None -> None
    | Some row ->
      Xsc_resilience.Abft.recover_cholesky_rows ~a:padded ~l ~from:row;
      Some row
  in
  (* solve with the (possibly repaired) dense factor *)
  let y = pad_rhs b padded.Mat.rows in
  Blas.trsv ~uplo:Blas.Lower l y;
  Blas.trsv ~uplo:Blas.Lower ~trans:Blas.Trans l y;
  {
    x = Array.sub y 0 n;
    corruption_detected = detected <> None;
    recovered_from_row;
  }
