open Xsc_linalg
module Tile = Xsc_tile.Tile
module Task = Xsc_runtime.Task
module Dag = Xsc_runtime.Dag

type factorization = {
  tiles : Tile.t;
  ipiv_diag : int array array;
  stacked : (Mat.t * int array) option array array;
}

let create (t : Tile.t) =
  if t.Tile.mt <> t.Tile.nt then invalid_arg "Lu_inc.create: matrix not square";
  {
    tiles = t;
    ipiv_diag = Array.init t.Tile.nt (fun _ -> Array.make t.Tile.nb 0);
    stacked = Array.init t.Tile.mt (fun _ -> Array.make t.Tile.nt None);
  }

(* LU with partial pivoting of a rectangular m x nb matrix (m >= nb),
   eliminating the first nb columns; returns ipiv of length nb. This is the
   shared kernel of GETRF(k) (m = nb) and TSGETRF(i, k) (m = 2 nb). *)
let panel_getrf (s : Mat.t) =
  let m = s.Mat.rows and nb = s.Mat.cols in
  let ipiv = Array.make nb 0 in
  for j = 0 to nb - 1 do
    let pivot_row = ref j in
    let pivot_val = ref (abs_float (Mat.get s j j)) in
    for i = j + 1 to m - 1 do
      let v = abs_float (Mat.get s i j) in
      if v > !pivot_val then begin
        pivot_val := v;
        pivot_row := i
      end
    done;
    ipiv.(j) <- !pivot_row;
    if !pivot_val = 0.0 then raise (Lapack.Singular j);
    if !pivot_row <> j then
      for c = 0 to nb - 1 do
        let tmp = Mat.get s j c in
        Mat.set s j c (Mat.get s !pivot_row c);
        Mat.set s !pivot_row c tmp
      done;
    let sjj = Mat.get s j j in
    for i = j + 1 to m - 1 do
      let lij = Mat.get s i j /. sjj in
      Mat.set s i j lij;
      if lij <> 0.0 then
        for c = j + 1 to nb - 1 do
          Mat.set s i c (Mat.get s i c -. (lij *. Mat.get s j c))
        done
    done
  done;
  ipiv

(* Apply the inverse of a panel factorization (P then the unit-lower
   eliminations) to a stacked right-hand block of matching height. *)
let panel_apply (s : Mat.t) ipiv (c : Mat.t) =
  let nb = Array.length ipiv in
  Lapack.laswp c ipiv;
  for q = 0 to nb - 1 do
    for r = q + 1 to s.Mat.rows - 1 do
      let l = Mat.get s r q in
      if l <> 0.0 then
        for col = 0 to c.Mat.cols - 1 do
          Mat.set c r col (Mat.get c r col -. (l *. Mat.get c q col))
        done
    done
  done

(* TSGETRF: stack the current U_kk over A_ik, factor the pair with pivoting
   across both tiles; the new U_kk replaces the old, A_ik is consumed. *)
let tsgetrf_kernel ~nb a_kk a_ik =
  let s = Mat.create (2 * nb) nb in
  for i = 0 to nb - 1 do
    for j = i to nb - 1 do
      Mat.set s i j (Mat.get a_kk i j)
    done
  done;
  Mat.blit_block ~src:a_ik ~dst:s ~src_row:0 ~src_col:0 ~dst_row:nb ~dst_col:0 ~rows:nb
    ~cols:nb;
  let ipiv = panel_getrf s in
  for i = 0 to nb - 1 do
    for j = i to nb - 1 do
      Mat.set a_kk i j (Mat.get s i j)
    done
  done;
  for i = 0 to nb - 1 do
    for j = 0 to nb - 1 do
      Mat.set a_ik i j 0.0
    done
  done;
  (s, ipiv)

(* TSMLU: apply a TSGETRF transformation to the stacked pair of trailing
   tiles [c_top; c_bot]. *)
let tsmlu_kernel ~nb s ipiv c_top c_bot =
  let cols = c_top.Mat.cols in
  let c = Mat.create (2 * nb) cols in
  Mat.blit_block ~src:c_top ~dst:c ~src_row:0 ~src_col:0 ~dst_row:0 ~dst_col:0 ~rows:nb
    ~cols;
  Mat.blit_block ~src:c_bot ~dst:c ~src_row:0 ~src_col:0 ~dst_row:nb ~dst_col:0 ~rows:nb
    ~cols;
  panel_apply s ipiv c;
  Mat.blit_block ~src:c ~dst:c_top ~src_row:0 ~src_col:0 ~dst_row:0 ~dst_col:0 ~rows:nb
    ~cols;
  Mat.blit_block ~src:c ~dst:c_bot ~src_row:nb ~src_col:0 ~dst_row:0 ~dst_col:0 ~rows:nb
    ~cols

let kernel_flops nb =
  let fnb = float_of_int nb in
  let getrf = 2.0 *. fnb *. fnb *. fnb /. 3.0 in
  let apply = fnb *. fnb *. fnb in
  (* getrf of a 2nb x nb panel: m n^2 - n^3/3 multiply-adds, doubled *)
  let tsgetrf = (2.0 *. 2.0 *. fnb *. fnb *. fnb) -. (2.0 *. fnb *. fnb *. fnb /. 3.0) in
  let tsmlu = 2.0 *. fnb *. fnb *. fnb in
  (getrf, apply, tsgetrf, tsmlu)

let tasks f =
  let t = f.tiles in
  let nt = t.Tile.nt and nb = t.Tile.nb in
  let getrf_f, apply_f, tsgetrf_f, tsmlu_f = kernel_flops nb in
  let datum i j = Task.datum i j ~stride:nt in
  Runtime_api.program ~nb @@ fun emit ->
  let emit name flops accesses run = emit ~run name flops accesses in
  for k = 0 to nt - 1 do
    let akk = Tile.tile t k k in
    let ipiv_k = f.ipiv_diag.(k) in
    emit
      (Printf.sprintf "getrf(%d)" k)
      getrf_f
      [ Task.Read_write (datum k k) ]
      (fun () ->
        let ipiv = panel_getrf akk in
        Array.blit ipiv 0 ipiv_k 0 nb);
    for j = k + 1 to nt - 1 do
      let akj = Tile.tile t k j in
      emit
        (Printf.sprintf "apply(%d,%d)" k j)
        apply_f
        [ Task.Read (datum k k); Task.Read_write (datum k j) ]
        (fun () -> panel_apply akk ipiv_k akj)
    done;
    for i = k + 1 to nt - 1 do
      let aik = Tile.tile t i k in
      emit
        (Printf.sprintf "tsgetrf(%d,%d)" i k)
        tsgetrf_f
        [ Task.Read_write (datum k k); Task.Read_write (datum i k) ]
        (fun () -> f.stacked.(i).(k) <- Some (tsgetrf_kernel ~nb akk aik));
      for j = k + 1 to nt - 1 do
        let akj = Tile.tile t k j in
        let aij = Tile.tile t i j in
        emit
          (Printf.sprintf "tsmlu(%d,%d,%d)" i j k)
          tsmlu_f
          [ Task.Read (datum i k); Task.Read_write (datum k j); Task.Read_write (datum i j) ]
          (fun () ->
            match f.stacked.(i).(k) with
            | Some (s, ipiv) -> tsmlu_kernel ~nb s ipiv akj aij
            | None -> failwith "Lu_inc: tsmlu before tsgetrf")
      done
    done
  done

let dag f = Dag.build (tasks f)

let factor ?(exec = Runtime_api.Sequential) t =
  let f = create t in
  ignore (Runtime_api.execute_exn exec (dag f));
  f

let apply_transforms f b =
  let t = f.tiles in
  let nt = t.Tile.nt and nb = t.Tile.nb in
  if Array.length b <> t.Tile.rows then invalid_arg "Lu_inc.apply_transforms: dimension mismatch";
  let chunks = Tile.tile_vec ~nb (Array.copy b) in
  let as_col v = Mat.init nb 1 (fun i _ -> v.(i)) in
  let of_col m v =
    for i = 0 to nb - 1 do
      v.(i) <- Mat.get m i 0
    done
  in
  for k = 0 to nt - 1 do
    let ck = as_col chunks.(k) in
    panel_apply (Tile.tile t k k) f.ipiv_diag.(k) ck;
    of_col ck chunks.(k);
    for i = k + 1 to nt - 1 do
      match f.stacked.(i).(k) with
      | None -> failwith "Lu_inc.apply_transforms: incomplete factorization"
      | Some (s, ipiv) ->
        let c = Mat.create (2 * nb) 1 in
        for r = 0 to nb - 1 do
          Mat.set c r 0 chunks.(k).(r);
          Mat.set c (nb + r) 0 chunks.(i).(r)
        done;
        panel_apply s ipiv c;
        for r = 0 to nb - 1 do
          chunks.(k).(r) <- Mat.get c r 0;
          chunks.(i).(r) <- Mat.get c (nb + r) 0
        done
    done
  done;
  Tile.untile_vec chunks

let solve f b =
  let t = f.tiles in
  let nt = t.Tile.nt and nb = t.Tile.nb in
  let y = Tile.tile_vec ~nb (apply_transforms f b) in
  (* back-substitution with U (upper tile triangle; diagonal tiles upper) *)
  for k = nt - 1 downto 0 do
    for j = k + 1 to nt - 1 do
      Blas.gemv ~alpha:(-1.0) (Tile.tile t k j) y.(j) ~beta:1.0 y.(k)
    done;
    Blas.trsv ~uplo:Blas.Upper (Tile.tile t k k) y.(k)
  done;
  Tile.untile_vec y

let factor_mat ?exec ~nb a =
  let t = Tile.of_mat ~nb a in
  factor ?exec t

let flops ~nt ~nb =
  let getrf_f, apply_f, tsgetrf_f, tsmlu_f = kernel_flops nb in
  let acc = ref 0.0 in
  for k = 0 to nt - 1 do
    let below = nt - 1 - k in
    acc := !acc +. getrf_f +. (float_of_int below *. (apply_f +. tsgetrf_f));
    acc := !acc +. (float_of_int (below * below) *. tsmlu_f)
  done;
  !acc

let task_count ~nt =
  let acc = ref 0 in
  for k = 0 to nt - 1 do
    let below = nt - 1 - k in
    acc := !acc + 1 + (2 * below) + (below * below)
  done;
  !acc
