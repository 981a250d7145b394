open Xsc_linalg

(* detected/corrected tallies pair with resilience.faults_injected from
   {!Inject} to give coverage ratios across a whole experiment run *)
let faults_detected = Xsc_obs.Metrics.counter "resilience.faults_detected"
let faults_corrected = Xsc_obs.Metrics.counter "resilience.faults_corrected"

type protected_product = {
  full : Mat.t;
  m : int;
  n : int;
}

let append_checksum_row (a : Mat.t) =
  let out = Mat.create (a.rows + 1) a.cols in
  Mat.blit_block ~src:a ~dst:out ~src_row:0 ~src_col:0 ~dst_row:0 ~dst_col:0 ~rows:a.rows
    ~cols:a.cols;
  for j = 0 to a.cols - 1 do
    let acc = ref 0.0 in
    for i = 0 to a.rows - 1 do
      acc := !acc +. Mat.get a i j
    done;
    Mat.set out a.rows j !acc
  done;
  out

let append_checksum_col (b : Mat.t) =
  let out = Mat.create b.rows (b.cols + 1) in
  Mat.blit_block ~src:b ~dst:out ~src_row:0 ~src_col:0 ~dst_row:0 ~dst_col:0 ~rows:b.rows
    ~cols:b.cols;
  for i = 0 to b.rows - 1 do
    let acc = ref 0.0 in
    for j = 0 to b.cols - 1 do
      acc := !acc +. Mat.get b i j
    done;
    Mat.set out i b.cols !acc
  done;
  out

let gemm_protected a b =
  if a.Mat.cols <> b.Mat.rows then invalid_arg "Abft.gemm_protected: dimension mismatch";
  let af = append_checksum_row a in
  let bf = append_checksum_col b in
  let full = Blas.gemm_new af bf in
  { full; m = a.Mat.rows; n = b.Mat.cols }

let default_tol p = 1e-8 *. max 1.0 (Mat.max_abs p.full) *. float_of_int (max p.m p.n)

let checksum_mismatches ?tol p =
  let tol = match tol with Some t -> t | None -> default_tol p in
  let bad_rows = ref [] and bad_cols = ref [] in
  for i = 0 to p.m - 1 do
    let acc = ref 0.0 in
    for j = 0 to p.n - 1 do
      acc := !acc +. Mat.get p.full i j
    done;
    if abs_float (!acc -. Mat.get p.full i p.n) > tol then bad_rows := i :: !bad_rows
  done;
  for j = 0 to p.n - 1 do
    let acc = ref 0.0 in
    for i = 0 to p.m - 1 do
      acc := !acc +. Mat.get p.full i j
    done;
    if abs_float (!acc -. Mat.get p.full p.m j) > tol then bad_cols := j :: !bad_cols
  done;
  (List.rev !bad_rows, List.rev !bad_cols)

let verify_product ?tol p =
  let rows, cols = checksum_mismatches ?tol p in
  let corrupt = List.concat_map (fun i -> List.map (fun j -> (i, j)) cols) rows in
  Xsc_obs.Metrics.add faults_detected (List.length corrupt);
  corrupt

let correct_product ?tol p =
  let corrupt = verify_product ?tol p in
  let corrected =
    match corrupt with
    | [] -> 0
    | [ (i, j) ] ->
    (* single error: the row checksum discrepancy is exactly the delta *)
    let acc = ref 0.0 in
    for jj = 0 to p.n - 1 do
      acc := !acc +. Mat.get p.full i jj
    done;
      let delta = !acc -. Mat.get p.full i p.n in
      Mat.set p.full i j (Mat.get p.full i j -. delta);
      1
    | multiple ->
    (* several candidate intersections: correct only when unambiguous,
       i.e. exactly one bad row and one bad column pair remains after each
       fix. Fix greedily row by row. *)
    let fixed = ref 0 in
    List.iter
      (fun (i, j) ->
        let row_mismatch =
          let acc = ref 0.0 in
          for jj = 0 to p.n - 1 do
            acc := !acc +. Mat.get p.full i jj
          done;
          !acc -. Mat.get p.full i p.n
        in
        let col_mismatch =
          let acc = ref 0.0 in
          for ii = 0 to p.m - 1 do
            acc := !acc +. Mat.get p.full ii j
          done;
          !acc -. Mat.get p.full p.m j
        in
        (* only a genuine single error at (i,j) shows the same discrepancy
           on both its row and its column *)
        let tol = match tol with Some t -> t | None -> default_tol p in
        if abs_float (row_mismatch -. col_mismatch) <= tol && abs_float row_mismatch > tol
        then begin
          Mat.set p.full i j (Mat.get p.full i j -. row_mismatch);
          incr fixed
        end)
        multiple;
      !fixed
  in
  Xsc_obs.Metrics.add faults_corrected corrected;
  corrected

let decode_product p = Mat.sub_block p.full ~row:0 ~col:0 ~rows:p.m ~cols:p.n

(* ---- Cholesky verification through checksum vectors ---- *)

let verify_cholesky ?tol ~l a =
  let n = a.Mat.rows in
  if n <> a.Mat.cols || l.Mat.rows <> n || l.Mat.cols <> n then
    invalid_arg "Abft.verify_cholesky: dimension mismatch";
  let tol =
    match tol with
    | Some t -> t
    | None -> 1e-8 *. max 1.0 (Mat.norm_inf a) *. float_of_int n
  in
  (* With any vector v: A v must equal L (Lᵀ v); a corrupted row i of L
     perturbs (L Lᵀ v)_i for every v with v_i involvement, so the residual
     of the plain checksum locates the row. The weighted checksum guards
     against coincidental cancellation. *)
  let check v =
    let ltv = Array.make n 0.0 in
    for i = 0 to n - 1 do
      (* (Lᵀ v)_i = sum_k L_ki v_k, L lower triangular: k >= i *)
      let acc = ref 0.0 in
      for k = i to n - 1 do
        acc := !acc +. (Mat.get l k i *. v.(k))
      done;
      ltv.(i) <- !acc
    done;
    let lltv = Array.make n 0.0 in
    for i = 0 to n - 1 do
      let acc = ref 0.0 in
      for k = 0 to i do
        acc := !acc +. (Mat.get l i k *. ltv.(k))
      done;
      lltv.(i) <- !acc
    done;
    let av = Mat.mul_vec a v in
    let bad = ref None in
    for i = n - 1 downto 0 do
      if abs_float (av.(i) -. lltv.(i)) > tol then bad := Some i
    done;
    !bad
  in
  let ones = Array.make n 1.0 in
  let weighted = Array.init n (fun i -> 1.0 +. (float_of_int i /. float_of_int n)) in
  let bad = match check ones with Some i -> Some i | None -> check weighted in
  if bad <> None then Xsc_obs.Metrics.incr faults_detected;
  bad

let recover_row ~a ~l ~row =
  let n = a.Mat.rows in
  for j = 0 to row - 1 do
    let acc = ref (Mat.get a row j) in
    for k = 0 to j - 1 do
      acc := !acc -. (Mat.get l row k *. Mat.get l j k)
    done;
    Mat.set l row j (!acc /. Mat.get l j j)
  done;
  let d = ref (Mat.get a row row) in
  for k = 0 to row - 1 do
    let v = Mat.get l row k in
    d := !d -. (v *. v)
  done;
  if !d <= 0.0 then raise (Lapack.Singular row);
  Mat.set l row row (sqrt !d);
  (* entries right of the diagonal in a lower factor are zero *)
  for j = row + 1 to n - 1 do
    Mat.set l row j 0.0
  done

let recover_cholesky_rows ~a ~l ~from =
  let n = a.Mat.rows in
  if from < 0 || from >= n then invalid_arg "Abft.recover_cholesky_rows: row out of range";
  for row = from to n - 1 do
    recover_row ~a ~l ~row
  done

let overhead_model ~n ~nb =
  if n <= 0 || nb <= 0 || n mod nb <> 0 then invalid_arg "Abft.overhead_model: bad sizes";
  let nt = float_of_int (n / nb) in
  ((nt +. 1.0) ** 2.0 /. (nt ** 2.0)) -. 1.0
