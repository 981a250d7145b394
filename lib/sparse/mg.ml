open Xsc_linalg

type level = {
  matrix : Csr.t;
  grid : int;
  (* scratch vectors reused across cycles *)
  x : Vec.t;
  b : Vec.t;
  r : Vec.t;
}

type smoother = Symgs | Jacobi

type t = { levels : level array; smoother : smoother }

let smooth t level =
  match t.smoother with
  | Symgs -> Csr.symgs_sweep level.matrix ~b:level.b ~x:level.x
  | Jacobi ->
    (* two weighted-Jacobi sweeps roughly match one symmetric GS sweep *)
    Csr.jacobi_sweep level.matrix ~b:level.b ~x:level.x;
    Csr.jacobi_sweep level.matrix ~b:level.b ~x:level.x

let make_level stencil grid =
  let matrix = stencil grid in
  let n = matrix.Csr.rows in
  { matrix; grid; x = Array.make n 0.0; b = Array.make n 0.0; r = Array.make n 0.0 }

let create ?(levels = 4) ?(smoother = Symgs) ?(stencil = Stencil.hpcg_27pt) n =
  if n < 2 then invalid_arg "Mg.create: grid too small";
  if levels < 1 then invalid_arg "Mg.create: need at least one level";
  (* include every grid down to the level budget; recurse only while the
     current grid halves evenly into a grid of at least 2 *)
  let rec grids acc g remaining =
    let acc = g :: acc in
    if remaining > 1 && g mod 2 = 0 && g / 2 >= 2 then grids acc (g / 2) (remaining - 1)
    else List.rev acc
  in
  let gs = grids [] n levels in
  { levels = Array.of_list (List.map (make_level stencil) gs); smoother }

let levels t = Array.length t.levels
let fine_matrix t = t.levels.(0).matrix

(* coarse grid point (x,y,z) on an nc-grid sits at (2x,2y,2z) on the fine
   2nc-grid *)
let fine_index ~nc i =
  let x = i / (nc * nc) and y = i / nc mod nc and z = i mod nc in
  let nf = 2 * nc in
  Stencil.grid_index ~n:nf (2 * x) (2 * y) (2 * z)

let residual_into level =
  Csr.mul_vec_into level.matrix level.x level.r;
  for i = 0 to Array.length level.r - 1 do
    level.r.(i) <- level.b.(i) -. level.r.(i)
  done

let rec cycle t l =
  let level = t.levels.(l) in
  if l = Array.length t.levels - 1 then
    (* bottom: smooth hard — the grid is tiny *)
    for _ = 1 to 8 do
      smooth t level
    done
  else begin
    (* pre-smooth *)
    smooth t level;
    residual_into level;
    (* restrict the residual by injection *)
    let coarse = t.levels.(l + 1) in
    let nc = coarse.grid in
    Array.fill coarse.x 0 (Array.length coarse.x) 0.0;
    for i = 0 to Array.length coarse.b - 1 do
      coarse.b.(i) <- level.r.(fine_index ~nc i)
    done;
    cycle t (l + 1);
    (* prolong the correction by injection *)
    for i = 0 to Array.length coarse.x - 1 do
      let fi = fine_index ~nc i in
      level.x.(fi) <- level.x.(fi) +. coarse.x.(i)
    done;
    (* post-smooth *)
    smooth t level
  end

let v_cycle t ~b ~x =
  let fine = t.levels.(0) in
  if Array.length b <> Array.length fine.b || Array.length x <> Array.length fine.x then
    invalid_arg "Mg.v_cycle: dimension mismatch";
  Array.blit b 0 fine.b 0 (Array.length b);
  Array.blit x 0 fine.x 0 (Array.length x);
  cycle t 0;
  Array.blit fine.x 0 x 0 (Array.length x)

let preconditioner t r =
  let z = Array.make (Array.length r) 0.0 in
  v_cycle t ~b:r ~x:z;
  z

(* Resumable V-cycle stepper: the convergence check runs at creation and
   after every cycle, so [finished] is always decided and a chunked solve
   performs exactly the cycle sequence of the sequential loop — same
   scratch, same order, bitwise-identical x. *)
type stepper = {
  mg_t : t;
  mg_b : Vec.t;
  mg_x : Vec.t;
  mg_target : float;
  mg_max_cycles : int;
  mutable mg_cycles : int;
  mutable mg_done : bool;
  mutable mg_converged : bool;
}

let true_residual_norm a ~b ~x =
  let r = Csr.mul_vec a x in
  Vec.axpy (-1.0) b r;
  Vec.nrm2 r

let mg_check s =
  if true_residual_norm (fine_matrix s.mg_t) ~b:s.mg_b ~x:s.mg_x <= s.mg_target then begin
    s.mg_done <- true;
    s.mg_converged <- true
  end
  else if s.mg_cycles >= s.mg_max_cycles then s.mg_done <- true

let stepper ?(tol = 1e-8) ?(max_cycles = 200) t b =
  let fine = t.levels.(0) in
  if Array.length b <> Array.length fine.b then
    invalid_arg "Mg.stepper: dimension mismatch";
  let bn = Vec.nrm2 b in
  let target = tol *. (if bn = 0.0 then 1.0 else bn) in
  let s =
    { mg_t = t; mg_b = b; mg_x = Array.make (Array.length b) 0.0;
      mg_target = target; mg_max_cycles = max_cycles; mg_cycles = 0;
      mg_done = false; mg_converged = false }
  in
  mg_check s;
  s

let step s k =
  let left = ref k in
  while !left > 0 && not s.mg_done do
    v_cycle s.mg_t ~b:s.mg_b ~x:s.mg_x;
    s.mg_cycles <- s.mg_cycles + 1;
    decr left;
    mg_check s
  done

let finished s = s.mg_done
let converged s = s.mg_converged
let solution s = (s.mg_x, s.mg_cycles)

let solve ?(tol = 1e-8) ?(max_cycles = 200) t b =
  let s = stepper ~tol ~max_cycles t b in
  step s max_cycles;
  solution s
