let convection_diffusion_2d ?(cx = 1.0) ?(cy = 1.0) n =
  if n <= 0 then invalid_arg "Stencil.convection_diffusion_2d: n must be positive";
  if cx < 0.0 || cy < 0.0 then
    invalid_arg "Stencil.convection_diffusion_2d: upwinding assumes c >= 0";
  let idx x y = (x * n) + y in
  let triplets = ref [] in
  for x = 0 to n - 1 do
    for y = 0 to n - 1 do
      let i = idx x y in
      (* diffusion 5-point plus first-order upwind convection: the flow
         (cx, cy) strengthens the west/south couplings and the diagonal *)
      triplets := (i, i, 4.0 +. cx +. cy) :: !triplets;
      if x > 0 then triplets := (i, idx (x - 1) y, -1.0 -. cx) :: !triplets;
      if x < n - 1 then triplets := (i, idx (x + 1) y, -1.0) :: !triplets;
      if y > 0 then triplets := (i, idx x (y - 1), -1.0 -. cy) :: !triplets;
      if y < n - 1 then triplets := (i, idx x (y + 1), -1.0) :: !triplets
    done
  done;
  Csr.of_triplets ~rows:(n * n) ~cols:(n * n) !triplets

let grid_index ~n x y z = (((x * n) + y) * n) + z

(* The 3-D stencils assemble CSR directly — no triplet list, no hashtable,
   no sort. A serving-layer sparse request generates its operator inline at
   submit time, so assembly must be O(nnz) with small constants (the
   triplet path costs ~100 ms for a 24^3 grid; this path is ~1 ms).
   Correctness hinges on emission order: within a row the neighbour column
   indices are produced strictly ascending (grid_index is lexicographic in
   (x, y, z)), so the result is bit-identical to what [Csr.of_triplets]
   builds from the same entries — the tests assert exactly that. *)

let assemble_3d ~n ~max_degree ~emit_row =
  let nn = n * n * n in
  let row_ptr = Array.make (nn + 1) 0 in
  let col_idx = Array.make (nn * max_degree) 0 in
  let values = Array.make (nn * max_degree) 0.0 in
  let k = ref 0 in
  for x = 0 to n - 1 do
    for y = 0 to n - 1 do
      for z = 0 to n - 1 do
        emit_row x y z (fun j v ->
            col_idx.(!k) <- j;
            values.(!k) <- v;
            incr k);
        row_ptr.(grid_index ~n x y z + 1) <- !k
      done
    done
  done;
  {
    Csr.rows = nn;
    cols = nn;
    row_ptr;
    col_idx = Array.sub col_idx 0 !k;
    values = Array.sub values 0 !k;
  }

let poisson_3d n =
  if n <= 0 then invalid_arg "Stencil.poisson_3d: n must be positive";
  (* neighbours in ascending index order: -x < -y < -z < diag < +z < +y < +x *)
  assemble_3d ~n ~max_degree:7 ~emit_row:(fun x y z push ->
      if x > 0 then push (grid_index ~n (x - 1) y z) (-1.0);
      if y > 0 then push (grid_index ~n x (y - 1) z) (-1.0);
      if z > 0 then push (grid_index ~n x y (z - 1)) (-1.0);
      push (grid_index ~n x y z) 6.0;
      if z < n - 1 then push (grid_index ~n x y (z + 1)) (-1.0);
      if y < n - 1 then push (grid_index ~n x (y + 1) z) (-1.0);
      if x < n - 1 then push (grid_index ~n (x + 1) y z) (-1.0))

let hpcg_27pt n =
  if n <= 0 then invalid_arg "Stencil.hpcg_27pt: n must be positive";
  (* ascending (dx, dy, dz) loops emit ascending indices: lexicographic *)
  assemble_3d ~n ~max_degree:27 ~emit_row:(fun x y z push ->
      for dx = -1 to 1 do
        for dy = -1 to 1 do
          for dz = -1 to 1 do
            let nx = x + dx and ny = y + dy and nz = z + dz in
            if nx >= 0 && nx < n && ny >= 0 && ny < n && nz >= 0 && nz < n then
              if dx = 0 && dy = 0 && dz = 0 then push (grid_index ~n x y z) 26.0
              else push (grid_index ~n nx ny nz) (-1.0)
          done
        done
      done)

let exact_rhs a =
  let x = Array.make a.Csr.cols 1.0 in
  let b = Csr.mul_vec a x in
  (x, b)
