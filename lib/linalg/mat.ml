type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let copy m = { m with data = Array.copy m.data }

let get m i j = m.data.((i * m.cols) + j)
let set m i j x = m.data.((i * m.cols) + j) <- x

let dims m = (m.rows, m.cols)

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let row m i = Array.sub m.data (i * m.cols) m.cols
let col m j = Array.init m.rows (fun i -> get m i j)
let diag m = Array.init (min m.rows m.cols) (fun i -> get m i i)

let check_block name m r c rows cols =
  if r < 0 || c < 0 || rows < 0 || cols < 0 || r + rows > m.rows || c + cols > m.cols then
    invalid_arg (name ^ ": block out of bounds")

let sub_block m ~row ~col ~rows ~cols =
  check_block "Mat.sub_block" m row col rows cols;
  init rows cols (fun i j -> get m (row + i) (col + j))

let blit_block ~src ~dst ~src_row ~src_col ~dst_row ~dst_col ~rows ~cols =
  check_block "Mat.blit_block(src)" src src_row src_col rows cols;
  check_block "Mat.blit_block(dst)" dst dst_row dst_col rows cols;
  for i = 0 to rows - 1 do
    Array.blit src.data
      (((src_row + i) * src.cols) + src_col)
      dst.data
      (((dst_row + i) * dst.cols) + dst_col)
      cols
  done

let map f m = { m with data = Array.map f m.data }

let check_same_dims name a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg (name ^ ": dimension mismatch")

let add a b =
  check_same_dims "Mat.add" a b;
  { a with data = Array.init (Array.length a.data) (fun i -> a.data.(i) +. b.data.(i)) }

let sub a b =
  check_same_dims "Mat.sub" a b;
  { a with data = Array.init (Array.length a.data) (fun i -> a.data.(i) -. b.data.(i)) }

let scale alpha m = map (fun x -> alpha *. x) m

let mul_vec m x =
  if Array.length x <> m.cols then invalid_arg "Mat.mul_vec: dimension mismatch";
  let y = Array.make m.rows 0.0 in
  for i = 0 to m.rows - 1 do
    let acc = ref 0.0 in
    let base = i * m.cols in
    for j = 0 to m.cols - 1 do
      acc := !acc +. (m.data.(base + j) *. x.(j))
    done;
    y.(i) <- !acc
  done;
  y

let frobenius m =
  let acc = ref 0.0 in
  Array.iter (fun x -> acc := !acc +. (x *. x)) m.data;
  sqrt !acc

let norm_inf m =
  let best = ref 0.0 in
  for i = 0 to m.rows - 1 do
    let acc = ref 0.0 in
    for j = 0 to m.cols - 1 do
      acc := !acc +. abs_float (get m i j)
    done;
    if !acc > !best then best := !acc
  done;
  !best

let max_abs m = Array.fold_left (fun acc x -> max acc (abs_float x)) 0.0 m.data

let dist_max a b =
  check_same_dims "Mat.dist_max" a b;
  let acc = ref 0.0 in
  for i = 0 to Array.length a.data - 1 do
    acc := max !acc (abs_float (a.data.(i) -. b.data.(i)))
  done;
  !acc

let approx_equal ?(tol = 1e-10) a b =
  a.rows = b.rows && a.cols = b.cols && dist_max a b <= tol

let random rng rows cols =
  init rows cols (fun _ _ -> (2.0 *. Xsc_util.Rng.uniform rng) -. 1.0)

let random_spd rng n =
  let b = random rng n n in
  let a = create n n in
  (* A = B Bᵀ + n I, computed directly to avoid depending on Blas here. *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for k = 0 to n - 1 do
        acc := !acc +. (get b i k *. get b j k)
      done;
      set a i j (!acc +. if i = j then float_of_int n else 0.0)
    done
  done;
  a

let random_diag_dominant rng n =
  let a = random rng n n in
  for i = 0 to n - 1 do
    let acc = ref 0.0 in
    for j = 0 to n - 1 do
      if j <> i then acc := !acc +. abs_float (get a i j)
    done;
    set a i i (!acc +. 1.0 +. Xsc_util.Rng.uniform rng)
  done;
  a

let symmetrize m =
  if m.rows <> m.cols then invalid_arg "Mat.symmetrize: not square";
  init m.rows m.cols (fun i j -> (get m i j +. get m j i) /. 2.0)

let lower ?(unit_diag = false) m =
  init m.rows m.cols (fun i j ->
      if i > j then get m i j
      else if i = j then if unit_diag then 1.0 else get m i j
      else 0.0)

let upper m = init m.rows m.cols (fun i j -> if i <= j then get m i j else 0.0)
