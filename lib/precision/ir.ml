open Xsc_linalg

type report = {
  x : Vec.t;
  iterations : int;
  converged : bool;
  backward_error : float;
  factor_flops : float;
  refine_flops : float;
  history : float list;
}

let backward_error a x b r =
  let na = Mat.norm_inf a and nx = Vec.norm_inf x and nb = Vec.norm_inf b in
  let denom = (na *. nx) +. nb in
  if denom = 0.0 then 0.0 else Vec.norm_inf r /. denom

(* Shared refinement loop: [solve_correction r] returns the low-precision
   solve of [A d = r]; residuals are computed in double. *)
let refine ~max_iter ~tol ~factor_flops ~per_iter_flops a b x0 solve_correction =
  let n = Array.length b in
  let x = Array.copy x0 in
  let r = Array.copy b in
  Blas.gemv ~alpha:(-1.0) a x ~beta:1.0 r;
  let be = ref (backward_error a x b r) in
  let history = ref [ !be ] in
  let iter = ref 0 in
  let converged = ref (!be <= tol) in
  while (not !converged) && !iter < max_iter do
    incr iter;
    let d = solve_correction r in
    Vec.axpy 1.0 d x;
    Array.blit b 0 r 0 n;
    Blas.gemv ~alpha:(-1.0) a x ~beta:1.0 r;
    be := backward_error a x b r;
    history := !be :: !history;
    converged := !be <= tol
  done;
  {
    x;
    iterations = !iter;
    converged = !converged;
    backward_error = !be;
    factor_flops;
    refine_flops = float_of_int !iter *. per_iter_flops;
    history = List.rev !history;
  }

let default_tol = 4.0 *. epsilon_float

let lu_ir ?(max_iter = 50) ?(tol = default_tol) ~precision a b =
  let module P = (val precision : Scalar.S) in
  let module G = Gblas.Make (P) in
  let n = a.Mat.rows in
  if n <> a.Mat.cols || Array.length b <> n then invalid_arg "Ir.lu_ir: dimension mismatch";
  let f = G.quantize_mat a in
  let ipiv = G.getrf f in
  (* Residuals shrink below the narrow format's representable range as the
     iteration converges, so scale to O(1) before converting and scale the
     correction back (the HPL-AI recipe). *)
  let solve r =
    let scale = Vec.norm_inf r in
    if scale = 0.0 then Array.make (Array.length r) 0.0
    else begin
      let d = G.quantize_vec (Array.map (fun x -> x /. scale) r) in
      G.getrs f ipiv d;
      Array.map (fun x -> x *. scale) d
    end
  in
  let x0 = solve b in
  let per_iter_flops = (2.0 *. float_of_int (n * n)) +. (2.0 *. float_of_int (n * n)) in
  refine ~max_iter ~tol ~factor_flops:(Lapack.getrf_flops n) ~per_iter_flops a b x0 solve

let chol_ir ?(max_iter = 50) ?(tol = default_tol) ~precision a b =
  let module P = (val precision : Scalar.S) in
  let module G = Gblas.Make (P) in
  let n = a.Mat.rows in
  if n <> a.Mat.cols || Array.length b <> n then
    invalid_arg "Ir.chol_ir: dimension mismatch";
  let f = G.quantize_mat a in
  G.potrf f;
  let solve r =
    let scale = Vec.norm_inf r in
    if scale = 0.0 then Array.make (Array.length r) 0.0
    else begin
      let d = G.quantize_vec (Array.map (fun x -> x /. scale) r) in
      G.potrs f d;
      Array.map (fun x -> x *. scale) d
    end
  in
  let x0 = solve b in
  let per_iter_flops = (2.0 *. float_of_int (n * n)) +. (2.0 *. float_of_int (n * n)) in
  refine ~max_iter ~tol ~factor_flops:(Lapack.potrf_flops n) ~per_iter_flops a b x0 solve

(* The real float32 pipeline: pad to a tile multiple, pack into float32
   tile-major storage (quantizing once), run the genuinely single-precision
   packed tiled Cholesky (Pblas C kernels — the one that measures ~2x the
   double rate from halved memory traffic and doubled SIMD lanes), then
   refine in double against the original matrix. Contrast with [chol_ir
   ~precision:fp32], which simulates reduced precision by rounding every
   double operation — correct for accuracy studies, useless for speed. *)
let chol_ir32 ?(max_iter = 50) ?(tol = default_tol) ?nb a b =
  let module Packed = Xsc_tile.Packed in
  (* default tile size: this host's tuned nb when a tuning cache is
     loaded, the historical 64 otherwise *)
  let nb = match nb with Some nb -> nb | None -> Packed.tuned_nb ~fallback:64 in
  let n = a.Mat.rows in
  if n <> a.Mat.cols || Array.length b <> n then
    invalid_arg "Ir.chol_ir32: dimension mismatch";
  let padded, _ = Xsc_tile.Tile.pad_to ~nb a in
  let np = padded.Mat.rows in
  let f = Packed.S.of_mat ~nb padded in
  Packed.S.potrf f;
  (* Scale the residual to O(1) before the f32-factor solve and scale the
     correction back (HPL-AI recipe): converged residuals fall below
     float32's representable range otherwise. The solve itself reads the
     f32 factor with double accumulation. *)
  let solve r =
    let scale = Vec.norm_inf r in
    if scale = 0.0 then Array.make (Array.length r) 0.0
    else begin
      let rp = Array.make np 0.0 in
      Array.iteri (fun i x -> rp.(i) <- x /. scale) r;
      Packed.S.potrs f rp;
      Array.init n (fun i -> rp.(i) *. scale)
    end
  in
  let x0 = solve b in
  let per_iter_flops = (2.0 *. float_of_int (n * n)) +. (2.0 *. float_of_int (n * n)) in
  refine ~max_iter ~tol ~factor_flops:(Lapack.potrf_flops n) ~per_iter_flops a b x0 solve

(* Dense GMRES on an operator closure (MGS Arnoldi + Givens), used to solve
   the preconditioned correction equation of gmres_ir. Returns the iterate
   after at most [restart] steps or when the implied residual passes [tol]
   (relative to ||b||). *)
let gmres_operator ~apply ~restart ~tol b =
  let n = Array.length b in
  let x = Array.make n 0.0 in
  let m = restart in
  let basis = Array.init (m + 1) (fun _ -> Array.make n 0.0) in
  let h = Array.make_matrix (m + 1) m 0.0 in
  let cs = Array.make m 0.0 and sn = Array.make m 0.0 in
  let g = Array.make (m + 1) 0.0 in
  let beta = Vec.nrm2 b in
  if beta = 0.0 then x
  else begin
    let target = tol *. beta in
    Array.blit b 0 basis.(0) 0 n;
    Vec.scal (1.0 /. beta) basis.(0);
    g.(0) <- beta;
    let j = ref 0 in
    let done_ = ref false in
    while not !done_ do
      let jj = !j in
      let w = apply basis.(jj) in
      for i = 0 to jj do
        let hij = Vec.dot w basis.(i) in
        h.(i).(jj) <- hij;
        Vec.axpy (-.hij) basis.(i) w
      done;
      let hnext = Vec.nrm2 w in
      h.(jj + 1).(jj) <- hnext;
      if hnext > 0.0 then begin
        Array.blit w 0 basis.(jj + 1) 0 n;
        Vec.scal (1.0 /. hnext) basis.(jj + 1)
      end;
      for i = 0 to jj - 1 do
        let t = (cs.(i) *. h.(i).(jj)) +. (sn.(i) *. h.(i + 1).(jj)) in
        h.(i + 1).(jj) <- (-.sn.(i) *. h.(i).(jj)) +. (cs.(i) *. h.(i + 1).(jj));
        h.(i).(jj) <- t
      done;
      let denom = sqrt ((h.(jj).(jj) ** 2.0) +. (h.(jj + 1).(jj) ** 2.0)) in
      if denom = 0.0 then begin
        cs.(jj) <- 1.0;
        sn.(jj) <- 0.0
      end
      else begin
        cs.(jj) <- h.(jj).(jj) /. denom;
        sn.(jj) <- h.(jj + 1).(jj) /. denom
      end;
      h.(jj).(jj) <- (cs.(jj) *. h.(jj).(jj)) +. (sn.(jj) *. h.(jj + 1).(jj));
      h.(jj + 1).(jj) <- 0.0;
      g.(jj + 1) <- -.sn.(jj) *. g.(jj);
      g.(jj) <- cs.(jj) *. g.(jj);
      if abs_float g.(jj + 1) <= target || jj = m - 1 || hnext = 0.0 then done_ := true
      else incr j
    done;
    let steps = !j + 1 in
    let y = Array.make steps 0.0 in
    for i = steps - 1 downto 0 do
      let acc = ref g.(i) in
      for l = i + 1 to steps - 1 do
        acc := !acc -. (h.(i).(l) *. y.(l))
      done;
      y.(i) <- !acc /. h.(i).(i)
    done;
    for i = 0 to steps - 1 do
      Vec.axpy y.(i) basis.(i) x
    done;
    x
  end

let gmres_ir ?(max_iter = 50) ?(tol = default_tol) ?(restart = 10) ~precision a b =
  let module P = (val precision : Scalar.S) in
  let module G = Gblas.Make (P) in
  let n = a.Mat.rows in
  if n <> a.Mat.cols || Array.length b <> n then
    invalid_arg "Ir.gmres_ir: dimension mismatch";
  let f = G.quantize_mat a in
  let ipiv = G.getrf f in
  (* the preconditioner solve uses the low-precision factors but applies
     them in double — the Carson-Higham recipe *)
  let msolve r =
    let d = Array.copy r in
    Lapack.getrs f ipiv d;
    d
  in
  let apply z =
    (* M^-1 A z, all in double *)
    let az = Array.make n 0.0 in
    Blas.gemv ~alpha:1.0 a z ~beta:0.0 az;
    msolve az
  in
  let solve r = gmres_operator ~apply ~restart ~tol:1e-4 (msolve r) in
  let x0 = solve b in
  let per_iter_flops =
    float_of_int restart *. 2.0 *. float_of_int (n * n) (* restart gemv's dominate *)
  in
  refine ~max_iter ~tol ~factor_flops:(Lapack.getrf_flops n) ~per_iter_flops a b x0 solve

let plain_solve_flops n = Lapack.getrf_flops n +. (2.0 *. float_of_int (n * n))

let ir_model_time ~n ~low_rate ~high_rate ~iterations =
  let factor = Lapack.getrf_flops n /. low_rate in
  let solves = 2.0 *. float_of_int (n * n) /. low_rate in
  let sweeps =
    float_of_int iterations *. 4.0 *. float_of_int (n * n) /. high_rate
  in
  factor +. solves +. sweeps
