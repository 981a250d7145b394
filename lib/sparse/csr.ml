open Xsc_linalg

type t = {
  rows : int;
  cols : int;
  row_ptr : int array;
  col_idx : int array;
  values : float array;
}

let of_triplets ~rows ~cols triplets =
  if rows < 0 || cols < 0 then invalid_arg "Csr.of_triplets: negative dimension";
  List.iter
    (fun (i, j, _) ->
      if i < 0 || i >= rows || j < 0 || j >= cols then
        invalid_arg "Csr.of_triplets: coordinate out of bounds")
    triplets;
  (* sum duplicates via a per-coordinate table, then sort rows *)
  let tbl : (int * int, float) Hashtbl.t = Hashtbl.create (List.length triplets) in
  List.iter
    (fun (i, j, v) ->
      let key = (i, j) in
      let cur = Option.value ~default:0.0 (Hashtbl.find_opt tbl key) in
      Hashtbl.replace tbl key (cur +. v))
    triplets;
  let entries = Hashtbl.fold (fun (i, j) v acc -> (i, j, v) :: acc) tbl [] in
  let entries =
    List.sort (fun (i1, j1, _) (i2, j2, _) -> compare (i1, j1) (i2, j2)) entries
  in
  let n = List.length entries in
  let row_ptr = Array.make (rows + 1) 0 in
  let col_idx = Array.make n 0 in
  let values = Array.make n 0.0 in
  List.iteri
    (fun k (i, j, v) ->
      row_ptr.(i + 1) <- row_ptr.(i + 1) + 1;
      col_idx.(k) <- j;
      values.(k) <- v)
    entries;
  for i = 0 to rows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  { rows; cols; row_ptr; col_idx; values }

let of_dense (m : Mat.t) =
  let triplets = ref [] in
  for i = m.rows - 1 downto 0 do
    for j = m.cols - 1 downto 0 do
      let v = Mat.get m i j in
      if v <> 0.0 then triplets := (i, j, v) :: !triplets
    done
  done;
  of_triplets ~rows:m.rows ~cols:m.cols !triplets

let to_dense t =
  let m = Mat.create t.rows t.cols in
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      Mat.set m i t.col_idx.(k) t.values.(k)
    done
  done;
  m

let nnz t = Array.length t.values

let get t i j =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then invalid_arg "Csr.get: out of bounds";
  let result = ref 0.0 in
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    if t.col_idx.(k) = j then result := t.values.(k)
  done;
  !result

let spmv_flops t = 2.0 *. float_of_int (Array.length t.values)

let spmv_bytes t =
  (* values (8B) + column indices (4B equivalent) per nonzero, plus the
     x read and y write per row (two 8B streams, ignoring cache reuse of x) *)
  (12.0 *. float_of_int (Array.length t.values)) +. (16.0 *. float_of_int t.rows)

let mul_vec_into t x y =
  if Array.length x <> t.cols || Array.length y <> t.rows then
    invalid_arg "Csr.mul_vec_into: dimension mismatch";
  Blas.tally_kernel "spmv" ~flops:(spmv_flops t) ~bytes:(spmv_bytes t);
  for i = 0 to t.rows - 1 do
    let acc = ref 0.0 in
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      acc := !acc +. (t.values.(k) *. x.(t.col_idx.(k)))
    done;
    y.(i) <- !acc
  done

let mul_vec t x =
  let y = Array.make t.rows 0.0 in
  mul_vec_into t x y;
  y

let diagonal t =
  let d = Array.make (min t.rows t.cols) 0.0 in
  for i = 0 to Array.length d - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      if t.col_idx.(k) = i then d.(i) <- t.values.(k)
    done
  done;
  d

let symgs_sweep t ~b ~x =
  if t.rows <> t.cols then invalid_arg "Csr.symgs_sweep: not square";
  if Array.length b <> t.rows || Array.length x <> t.rows then
    invalid_arg "Csr.symgs_sweep: dimension mismatch";
  let sweep_row i =
    let acc = ref b.(i) in
    let diag = ref 0.0 in
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let j = t.col_idx.(k) in
      if j = i then diag := t.values.(k) else acc := !acc -. (t.values.(k) *. x.(j))
    done;
    if !diag = 0.0 then invalid_arg "Csr.symgs_sweep: zero diagonal";
    x.(i) <- !acc /. !diag
  in
  (* forward + backward pass: twice the SpMV's nonzero traffic *)
  Blas.tally_kernel "symgs"
    ~flops:(2.0 *. spmv_flops t)
    ~bytes:(2.0 *. spmv_bytes t);
  for i = 0 to t.rows - 1 do
    sweep_row i
  done;
  for i = t.rows - 1 downto 0 do
    sweep_row i
  done

let jacobi_sweep ?(omega = 2.0 /. 3.0) t ~b ~x =
  if t.rows <> t.cols then invalid_arg "Csr.jacobi_sweep: not square";
  if Array.length b <> t.rows || Array.length x <> t.rows then
    invalid_arg "Csr.jacobi_sweep: dimension mismatch";
  Blas.tally_kernel "jacobi"
    ~flops:(spmv_flops t +. (2.0 *. float_of_int t.rows))
    ~bytes:(spmv_bytes t);
  let r = Array.make t.rows 0.0 in
  let d = Array.make t.rows 0.0 in
  for i = 0 to t.rows - 1 do
    let acc = ref b.(i) in
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let j = t.col_idx.(k) in
      if j = i then d.(i) <- t.values.(k);
      acc := !acc -. (t.values.(k) *. x.(j))
    done;
    r.(i) <- !acc
  done;
  for i = 0 to t.rows - 1 do
    if d.(i) = 0.0 then invalid_arg "Csr.jacobi_sweep: zero diagonal";
    x.(i) <- x.(i) +. (omega *. r.(i) /. d.(i))
  done

let is_symmetric ?(tol = 0.0) t =
  t.rows = t.cols
  &&
  let ok = ref true in
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let j = t.col_idx.(k) in
      if abs_float (t.values.(k) -. get t j i) > tol then ok := false
    done
  done;
  !ok
