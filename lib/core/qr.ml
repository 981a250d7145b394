open Xsc_linalg
module Tile = Xsc_tile.Tile
module Task = Xsc_runtime.Task
module Dag = Xsc_runtime.Dag

type factorization = {
  tiles : Tile.t;
  tau_diag : float array array;
  stacked : (Mat.t * float array) option array array;
}

let create (t : Tile.t) =
  if t.Tile.mt < t.Tile.nt then invalid_arg "Qr.create: requires mt >= nt";
  {
    tiles = t;
    tau_diag = Array.init t.Tile.nt (fun _ -> Array.make t.Tile.nb 0.0);
    stacked = Array.init t.Tile.mt (fun _ -> Array.make t.Tile.nt None);
  }

(* Stack the upper triangle of the current R_kk over tile a_ik and factor;
   returns (v, tau) with the new R written back into a_kk's upper part and
   a_ik zeroed. *)
let tsqrt_kernel ~nb a_kk a_ik =
  let s = Mat.create (2 * nb) nb in
  for i = 0 to nb - 1 do
    for j = i to nb - 1 do
      Mat.set s i j (Mat.get a_kk i j)
    done
  done;
  Mat.blit_block ~src:a_ik ~dst:s ~src_row:0 ~src_col:0 ~dst_row:nb ~dst_col:0 ~rows:nb
    ~cols:nb;
  let tau = Lapack.geqrf s in
  for i = 0 to nb - 1 do
    for j = i to nb - 1 do
      Mat.set a_kk i j (Mat.get s i j)
    done
  done;
  (* the tile is annihilated; its storage documents that *)
  for i = 0 to nb - 1 do
    for j = 0 to nb - 1 do
      Mat.set a_ik i j 0.0
    done
  done;
  (s, tau)

(* Apply the stacked reflectors to [c_top; c_bot] in place. *)
let tsmqr_kernel ~nb v tau c_top c_bot =
  let cols = c_top.Mat.cols in
  let c = Mat.create (2 * nb) cols in
  Mat.blit_block ~src:c_top ~dst:c ~src_row:0 ~src_col:0 ~dst_row:0 ~dst_col:0 ~rows:nb
    ~cols;
  Mat.blit_block ~src:c_bot ~dst:c ~src_row:0 ~src_col:0 ~dst_row:nb ~dst_col:0 ~rows:nb
    ~cols;
  Lapack.ormqr ~trans:Blas.Trans ~a:v ~tau c;
  Mat.blit_block ~src:c ~dst:c_top ~src_row:0 ~src_col:0 ~dst_row:0 ~dst_col:0 ~rows:nb
    ~cols;
  Mat.blit_block ~src:c ~dst:c_bot ~src_row:nb ~src_col:0 ~dst_row:0 ~dst_col:0 ~rows:nb
    ~cols

let kernel_flops nb =
  let fnb = float_of_int nb in
  let geqrt = Lapack.geqrf_flops nb nb in
  let unmqr = 2.0 *. fnb *. fnb *. fnb in
  let tsqrt = Lapack.geqrf_flops (2 * nb) nb in
  let tsmqr = 4.0 *. fnb *. fnb *. fnb in
  (geqrt, unmqr, tsqrt, tsmqr)

let tasks f =
  let t = f.tiles in
  let mt = t.Tile.mt and nt = t.Tile.nt and nb = t.Tile.nb in
  let geqrt_f, unmqr_f, tsqrt_f, tsmqr_f = kernel_flops nb in
  let datum i j = Task.datum i j ~stride:nt in
  Runtime_api.program ~nb @@ fun emit ->
  let emit name flops accesses run = emit ~run name flops accesses in
  for k = 0 to nt - 1 do
    let akk = Tile.tile t k k in
    let tau_k = f.tau_diag.(k) in
    emit
      (Printf.sprintf "geqrt(%d)" k)
      geqrt_f
      [ Task.Read_write (datum k k) ]
      (fun () ->
        let tau = Lapack.geqrf akk in
        Array.blit tau 0 tau_k 0 (Array.length tau));
    for j = k + 1 to nt - 1 do
      let akj = Tile.tile t k j in
      emit
        (Printf.sprintf "unmqr(%d,%d)" k j)
        unmqr_f
        [ Task.Read (datum k k); Task.Read_write (datum k j) ]
        (fun () -> Lapack.ormqr ~trans:Blas.Trans ~a:akk ~tau:tau_k akj)
    done;
    for i = k + 1 to mt - 1 do
      let aik = Tile.tile t i k in
      emit
        (Printf.sprintf "tsqrt(%d,%d)" i k)
        tsqrt_f
        [ Task.Read_write (datum k k); Task.Read_write (datum i k) ]
        (fun () -> f.stacked.(i).(k) <- Some (tsqrt_kernel ~nb akk aik));
      for j = k + 1 to nt - 1 do
        let akj = Tile.tile t k j in
        let aij = Tile.tile t i j in
        emit
          (Printf.sprintf "tsmqr(%d,%d,%d)" i j k)
          tsmqr_f
          [ Task.Read (datum i k); Task.Read_write (datum k j); Task.Read_write (datum i j) ]
          (fun () ->
            match f.stacked.(i).(k) with
            | Some (v, tau) -> tsmqr_kernel ~nb v tau akj aij
            | None -> failwith "Qr: tsmqr before tsqrt")
      done
    done
  done

let dag f = Dag.build (tasks f)

let factor ?(exec = Runtime_api.Sequential) t =
  let f = create t in
  ignore (Runtime_api.execute_exn exec (dag f));
  f

let apply_qt f b =
  let t = f.tiles in
  let mt = t.Tile.mt and nt = t.Tile.nt and nb = t.Tile.nb in
  if Array.length b <> t.Tile.rows then invalid_arg "Qr.apply_qt: dimension mismatch";
  let chunks = Tile.tile_vec ~nb (Array.copy b) in
  let as_col v = Mat.init nb 1 (fun i _ -> v.(i)) in
  let of_col m v =
    for i = 0 to nb - 1 do
      v.(i) <- Mat.get m i 0
    done
  in
  for k = 0 to nt - 1 do
    (* replay geqrt(k) on chunk k *)
    let ck = as_col chunks.(k) in
    Lapack.ormqr ~trans:Blas.Trans ~a:(Tile.tile t k k) ~tau:f.tau_diag.(k) ck;
    of_col ck chunks.(k);
    for i = k + 1 to mt - 1 do
      match f.stacked.(i).(k) with
      | None -> failwith "Qr.apply_qt: incomplete factorization"
      | Some (v, tau) ->
        let c = Mat.create (2 * nb) 1 in
        for r = 0 to nb - 1 do
          Mat.set c r 0 chunks.(k).(r);
          Mat.set c (nb + r) 0 chunks.(i).(r)
        done;
        Lapack.ormqr ~trans:Blas.Trans ~a:v ~tau c;
        for r = 0 to nb - 1 do
          chunks.(k).(r) <- Mat.get c r 0;
          chunks.(i).(r) <- Mat.get c (nb + r) 0
        done
    done
  done;
  Tile.untile_vec chunks

(* Caveat: after geqrt/tsqrt the diagonal tile's strict lower part stores
   reflectors, so R_kk is only its upper triangle; off-diagonal row tiles
   are full R blocks. *)
let solve f b =
  let t = f.tiles in
  let nt = t.Tile.nt and nb = t.Tile.nb in
  let qtb = apply_qt f b in
  let y = Tile.tile_vec ~nb (Array.sub qtb 0 (nt * nb)) in
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

let flops ~mt ~nt ~nb =
  let geqrt_f, unmqr_f, tsqrt_f, tsmqr_f = kernel_flops nb in
  let acc = ref 0.0 in
  for k = 0 to nt - 1 do
    acc := !acc +. geqrt_f;
    acc := !acc +. (float_of_int (nt - 1 - k) *. unmqr_f);
    let rows_below = mt - 1 - k in
    acc := !acc +. (float_of_int rows_below *. tsqrt_f);
    acc := !acc +. (float_of_int (rows_below * (nt - 1 - k)) *. tsmqr_f)
  done;
  !acc

let task_count ~mt ~nt =
  let acc = ref 0 in
  for k = 0 to nt - 1 do
    acc := !acc + 1 + (nt - 1 - k) + ((mt - 1 - k) * (1 + (nt - 1 - k)))
  done;
  !acc
