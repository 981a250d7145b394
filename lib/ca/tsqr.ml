open Xsc_linalg

type tree = Binary | Flat

type result = {
  r : Mat.t;
  messages_critical_path : int;
  messages_total : int;
  words_total : float;
  reduction_depth : int;
}

(* QR of a single block, returning the n x n R factor. *)
let local_r (block : Mat.t) =
  let n = block.Mat.cols in
  if block.Mat.rows < n then invalid_arg "Tsqr: block has fewer rows than columns";
  let work = Mat.copy block in
  let _tau = Lapack.geqrf work in
  Mat.init n n (fun i j -> if j >= i then Mat.get work i j else 0.0)

(* Combine two R factors: QR of [r1; r2] stacked. *)
let combine r1 r2 =
  let n = r1.Mat.cols in
  let stacked = Mat.create (2 * n) n in
  Mat.blit_block ~src:r1 ~dst:stacked ~src_row:0 ~src_col:0 ~dst_row:0 ~dst_col:0 ~rows:n
    ~cols:n;
  Mat.blit_block ~src:r2 ~dst:stacked ~src_row:0 ~src_col:0 ~dst_row:n ~dst_col:0 ~rows:n
    ~cols:n;
  local_r stacked

let positive_diagonal r =
  (* fix the sign ambiguity so results are comparable across algorithms *)
  let n = r.Mat.rows in
  let out = Mat.copy r in
  for i = 0 to n - 1 do
    if Mat.get out i i < 0.0 then
      for j = i to out.Mat.cols - 1 do
        Mat.set out i j (-.(Mat.get out i j))
      done
  done;
  out

let r_words n = float_of_int (n * (n + 1) / 2)

let factor ?(tree = Binary) ~blocks () =
  let p = Array.length blocks in
  if p = 0 then invalid_arg "Tsqr.factor: no blocks";
  let n = blocks.(0).Mat.cols in
  Array.iter
    (fun b -> if b.Mat.cols <> n then invalid_arg "Tsqr.factor: ragged blocks")
    blocks;
  let locals = Array.map local_r blocks in
  let messages_total = ref 0 in
  let words = ref 0.0 in
  let depth = ref 0 in
  let r =
    match tree with
    | Flat ->
      (* rank 0 absorbs every other R in sequence *)
      let acc = ref locals.(0) in
      for i = 1 to p - 1 do
        incr messages_total;
        words := !words +. r_words n;
        acc := combine !acc locals.(i);
        incr depth
      done;
      !acc
    | Binary ->
      let current = ref (Array.to_list locals) in
      while List.length !current > 1 do
        incr depth;
        let rec pair = function
          | [] -> []
          | [ x ] -> [ x ]
          | x :: y :: rest ->
            incr messages_total;
            words := !words +. r_words n;
            combine x y :: pair rest
        in
        current := pair !current
      done;
      List.hd !current
  in
  {
    r = positive_diagonal r;
    messages_critical_path = (match tree with Flat -> p - 1 | Binary -> !depth);
    messages_total = !messages_total;
    words_total = !words;
    reduction_depth = !depth;
  }

let factor_mat ?tree ~p (a : Mat.t) =
  if p <= 0 then invalid_arg "Tsqr.factor_mat: p must be positive";
  if a.Mat.rows mod p <> 0 then invalid_arg "Tsqr.factor_mat: p must divide rows";
  let rows_per = a.Mat.rows / p in
  if rows_per < a.Mat.cols then invalid_arg "Tsqr.factor_mat: blocks shorter than wide";
  let blocks =
    Array.init p (fun i ->
        Mat.sub_block a ~row:(i * rows_per) ~col:0 ~rows:rows_per ~cols:a.Mat.cols)
  in
  factor ?tree ~blocks ()

let q_of a ~r =
  let q = Mat.copy a in
  (* Q = A R^-1: triangular solve from the right *)
  Blas.trsm ~side:Blas.Right ~uplo:Blas.Upper ~alpha:1.0 r q;
  q

let log2_ceil p =
  let rec go acc v = if v >= p then acc else go (acc + 1) (2 * v) in
  go 0 1

let householder_messages ~p ~n = 2 * n * log2_ceil p
