open Xsc_linalg

type variant = Classic | Chronopoulos_gear | Pipelined

type result = {
  x : Vec.t;
  iterations : int;
  converged : bool;
  residual_norm : float;
  sync_points : int;
  spmv_count : int;
  flops : float;
}

type counters = { mutable syncs : int; mutable spmvs : int; mutable flops : float }

let finish a b x counters ~iterations ~tol =
  let r = Array.copy b in
  let ax = Csr.mul_vec a x in
  Vec.axpy (-1.0) ax r;
  let rn = Vec.nrm2 r in
  let bn = Vec.nrm2 b in
  {
    x;
    iterations;
    converged = rn <= tol *. (if bn = 0.0 then 1.0 else bn);
    residual_norm = rn;
    sync_points = counters.syncs;
    spmv_count = counters.spmvs;
    flops = counters.flops;
  }

(* Resumable classic-(P)CG stepper. All loop state lives in the record, so
   the solve can be advanced a few iterations at a time — the serve routing
   layer runs chunks of iterations as pool tasks, and because [solve_classic]
   below is itself the stepper driven to completion, a chunked solve is
   bitwise-identical to the sequential one by construction. *)
type stepper = {
  st_a : Csr.t;
  st_b : Vec.t;
  st_x : Vec.t;
  st_precond : (Vec.t -> Vec.t) option;
  st_max_iter : int;
  st_tol : float;
  st_c : counters;
  st_r : Vec.t;
  st_p : Vec.t;
  mutable st_rz : float;
  st_target : float;
  mutable st_iterations : int;
  mutable st_break : bool;
}

let st_spmv c a v =
  c.spmvs <- c.spmvs + 1;
  c.flops <- c.flops +. Csr.spmv_flops a;
  Csr.mul_vec a v

let st_dot_sync c ~fn u v =
  c.syncs <- c.syncs + 1;
  c.flops <- c.flops +. (2.0 *. fn);
  Vec.dot u v

let st_apply_m c a precond r =
  match precond with
  | None -> Array.copy r
  | Some m ->
    (* one SymGS sweep ~ two SpMV's worth of flops *)
    c.flops <- c.flops +. (2.0 *. Csr.spmv_flops a);
    m r

let make_stepper ?precond ~max_iter ~tol a b x =
  let c = { syncs = 0; spmvs = 0; flops = 0.0 } in
  let fn = float_of_int (Array.length b) in
  let r = Array.copy b in
  let ax = st_spmv c a x in
  Vec.axpy (-1.0) ax r;
  let z = st_apply_m c a precond r in
  let p = Array.copy z in
  let rz = st_dot_sync c ~fn r z in
  let bn = Vec.nrm2 b in
  let target = tol *. (if bn = 0.0 then 1.0 else bn) in
  { st_a = a; st_b = b; st_x = x; st_precond = precond; st_max_iter = max_iter;
    st_tol = tol; st_c = c; st_r = r; st_p = p; st_rz = rz; st_target = target;
    st_iterations = 0; st_break = false }

let finished s = s.st_break || s.st_iterations >= s.st_max_iter

let step_one s =
  let n = Array.length s.st_b in
  let fn = float_of_int n in
  let c = s.st_c in
  let ap = st_spmv c s.st_a s.st_p in
  let pap = st_dot_sync c ~fn s.st_p ap in
  if pap <= 0.0 then s.st_break <- true
  else begin
    let alpha = s.st_rz /. pap in
    Vec.axpy alpha s.st_p s.st_x;
    Vec.axpy (-.alpha) ap s.st_r;
    c.flops <- c.flops +. (4.0 *. fn);
    s.st_iterations <- s.st_iterations + 1;
    (* convergence check shares the r.z reduction *)
    let z' = st_apply_m c s.st_a s.st_precond s.st_r in
    let rz' = st_dot_sync c ~fn s.st_r z' in
    let rn2 = if s.st_precond = None then rz' else Vec.dot s.st_r s.st_r in
    if sqrt (abs_float rn2) <= s.st_target then s.st_break <- true
    else begin
      let beta = rz' /. s.st_rz in
      for i = 0 to n - 1 do
        s.st_p.(i) <- z'.(i) +. (beta *. s.st_p.(i))
      done;
      c.flops <- c.flops +. (2.0 *. fn);
      s.st_rz <- rz'
    end
  end

let step s k =
  let left = ref k in
  while !left > 0 && not (finished s) do
    step_one s;
    decr left
  done

let result s =
  finish s.st_a s.st_b s.st_x s.st_c ~iterations:s.st_iterations ~tol:s.st_tol

let solve_classic ?precond ~max_iter ~tol a b x =
  let s = make_stepper ?precond ~max_iter ~tol a b x in
  while not (finished s) do
    step_one s
  done;
  result s

(* Chronopoulos-Gear and pipelined CG share the single-reduction
   recurrences; the pipelined variant additionally maintains w = A r and
   z = A p through vector updates so the SpMV can overlap the reduction. *)
let solve_fused ~pipelined ~max_iter ~tol a b x =
  let n = Array.length b in
  let c = { syncs = 0; spmvs = 0; flops = 0.0 } in
  let fn = float_of_int n in
  let spmv v =
    c.spmvs <- c.spmvs + 1;
    c.flops <- c.flops +. Csr.spmv_flops a;
    Csr.mul_vec a v
  in
  let fused_dots u v w1 w2 =
    (* both reductions in one synchronisation *)
    c.syncs <- c.syncs + 1;
    c.flops <- c.flops +. (4.0 *. fn);
    (Vec.dot u v, Vec.dot w1 w2)
  in
  let r = Array.copy b in
  let ax = spmv x in
  Vec.axpy (-1.0) ax r;
  let w = ref (spmv r) in
  let p = Array.make n 0.0 in
  let s = Array.make n 0.0 in
  (* s = A p *)
  let z = Array.make n 0.0 in
  (* z = A w (pipelined only) *)
  let q = Array.make n 0.0 in
  let bn = Vec.nrm2 b in
  let target = tol *. (if bn = 0.0 then 1.0 else bn) in
  let gamma_prev = ref 0.0 and alpha_prev = ref 0.0 in
  let iterations = ref 0 in
  let break = ref false in
  while (not !break) && !iterations < max_iter do
    let gamma, delta = fused_dots r r !w r in
    if sqrt gamma <= target then break := true
    else begin
      (* the SpMV below is what the pipelined variant overlaps with the
         reduction above *)
      if pipelined then begin
        let aw = spmv !w in
        Array.blit aw 0 q 0 n
      end;
      let beta, alpha =
        if !iterations = 0 then (0.0, gamma /. delta)
        else begin
          let beta = gamma /. !gamma_prev in
          (beta, gamma /. (delta -. (beta *. gamma /. !alpha_prev)))
        end
      in
      for i = 0 to n - 1 do
        p.(i) <- r.(i) +. (beta *. p.(i))
      done;
      if pipelined then begin
        for i = 0 to n - 1 do
          s.(i) <- !w.(i) +. (beta *. s.(i));
          z.(i) <- q.(i) +. (beta *. z.(i))
        done;
        c.flops <- c.flops +. (6.0 *. fn)
      end
      else begin
        for i = 0 to n - 1 do
          s.(i) <- !w.(i) +. (beta *. s.(i))
        done;
        c.flops <- c.flops +. (4.0 *. fn)
      end;
      Vec.axpy alpha p x;
      Vec.axpy (-.alpha) s r;
      c.flops <- c.flops +. (4.0 *. fn);
      if pipelined then begin
        let wv = !w in
        for i = 0 to n - 1 do
          wv.(i) <- wv.(i) -. (alpha *. z.(i))
        done;
        c.flops <- c.flops +. (2.0 *. fn)
      end
      else w := spmv r;
      gamma_prev := gamma;
      alpha_prev := alpha;
      incr iterations
    end
  done;
  finish a b x c ~iterations:!iterations ~tol

let solve ?(variant = Classic) ?precond ?(max_iter = 10_000) ?(tol = 1e-10) ?x0 a b =
  if a.Csr.rows <> a.Csr.cols then invalid_arg "Cg.solve: matrix not square";
  if Array.length b <> a.Csr.rows then invalid_arg "Cg.solve: dimension mismatch";
  let x =
    match x0 with
    | None -> Array.make (Array.length b) 0.0
    | Some v ->
      if Array.length v <> Array.length b then invalid_arg "Cg.solve: x0 dimension mismatch";
      Array.copy v
  in
  match variant with
  | Classic -> solve_classic ?precond ~max_iter ~tol a b x
  | Chronopoulos_gear | Pipelined ->
    if precond <> None then
      invalid_arg "Cg.solve: preconditioning is supported for the Classic variant only";
    solve_fused ~pipelined:(variant = Pipelined) ~max_iter ~tol a b x

let stepper ?precond ?(max_iter = 10_000) ?(tol = 1e-10) ?x0 a b =
  if a.Csr.rows <> a.Csr.cols then invalid_arg "Cg.stepper: matrix not square";
  if Array.length b <> a.Csr.rows then invalid_arg "Cg.stepper: dimension mismatch";
  let x =
    match x0 with
    | None -> Array.make (Array.length b) 0.0
    | Some v ->
      if Array.length v <> Array.length b then
        invalid_arg "Cg.stepper: x0 dimension mismatch";
      Array.copy v
  in
  make_stepper ?precond ~max_iter ~tol a b x

let symgs_preconditioner a r =
  let z = Array.make (Array.length r) 0.0 in
  Csr.symgs_sweep a ~b:r ~x:z;
  z

let variant_name = function
  | Classic -> "classic"
  | Chronopoulos_gear -> "chronopoulos-gear"
  | Pipelined -> "pipelined"

let modeled_sstep_iteration_time ~s ~network ~ranks ~spmv_time ~vector_time =
  if s < 1 then invalid_arg "Cg.modeled_sstep_iteration_time: s must be >= 1";
  let open Xsc_simmachine in
  let fs = float_of_int s in
  (* one Gram-matrix reduction of ~(2s+1)^2 doubles per s iterations *)
  let words = ((2.0 *. fs) +. 1.0) ** 2.0 in
  let allreduce = Network.allreduce_time network ~ranks ~bytes:(8.0 *. words) in
  (1.15 *. (spmv_time +. vector_time)) +. (allreduce /. fs)

let modeled_iteration_time variant ~network ~ranks ~spmv_time ~vector_time =
  let open Xsc_simmachine in
  let allreduce = Network.allreduce_time network ~ranks ~bytes:16.0 in
  match variant with
  | Classic -> spmv_time +. vector_time +. (2.0 *. allreduce)
  | Chronopoulos_gear -> spmv_time +. vector_time +. allreduce
  | Pipelined ->
    (* the reduction rides the SpMV; only the excess is exposed *)
    max spmv_time allreduce +. vector_time
