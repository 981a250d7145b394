open Xsc_linalg
module Tile = Xsc_tile.Tile
module Task = Xsc_runtime.Task
module Dag = Xsc_runtime.Dag

let strictly_diag_dominant a =
  let n = a.Mat.rows in
  let ok = ref true in
  for i = 0 to n - 1 do
    let off = ref 0.0 in
    for j = 0 to n - 1 do
      if j <> i then off := !off +. abs_float (Mat.get a i j)
    done;
    if abs_float (Mat.get a i i) <= !off then ok := false
  done;
  !ok

let kernel_flops nb =
  let fnb = float_of_int nb in
  let getrf = 2.0 *. fnb *. fnb *. fnb /. 3.0 in
  let trsm = fnb *. fnb *. fnb in
  let gemm = 2.0 *. fnb *. fnb *. fnb in
  (getrf, trsm, gemm)

(* Step k of the program: the panel (getrf, the trsm_l row, the trsm_u
   column) and the trailing gemm update; see Cholesky.panel. *)
let panel ~nt ~nb k emit =
  let getrf_f, trsm_f, _ = kernel_flops nb in
  let datum i j = Task.datum i j ~stride:nt in
  emit (Task.Getrf k) getrf_f [ Task.Read_write (datum k k) ];
  for j = k + 1 to nt - 1 do
    emit (Task.Trsm_l (k, j)) trsm_f [ Task.Read (datum k k); Task.Read_write (datum k j) ]
  done;
  for i = k + 1 to nt - 1 do
    emit (Task.Trsm_u (i, k)) trsm_f [ Task.Read (datum k k); Task.Read_write (datum i k) ]
  done

let update ~nt ~nb k emit =
  let _, _, gemm_f = kernel_flops nb in
  let datum i j = Task.datum i j ~stride:nt in
  for i = k + 1 to nt - 1 do
    for j = k + 1 to nt - 1 do
      emit
        (Task.Gemm (i, j, k))
        gemm_f
        [ Task.Read (datum i k); Task.Read (datum k j); Task.Read_write (datum i j) ]
    done
  done

let tasks_ops ~nt ~nb =
  Runtime_api.program ~nb (fun emit ->
      let emit = Runtime_api.emit_op emit in
      for k = 0 to nt - 1 do
        panel ~nt ~nb k emit;
        update ~nt ~nb k emit
      done)

let dag_ops ~nt ~nb = Dag.build (tasks_ops ~nt ~nb)

let tile_interp (t : Tile.t) =
  if t.Tile.mt <> t.Tile.nt then invalid_arg "Lu.tile_interp: matrix not square";
  let tile = Tile.tile t in
  fun (op : Task.op) ->
    match op with
    | Task.Getrf k -> Lapack.getrf_nopiv (tile k k)
    | Task.Trsm_l (k, j) ->
      (* A_kj <- L_kk^-1 A_kj *)
      Blas.trsm ~side:Blas.Left ~uplo:Blas.Lower ~diag:Blas.Unit ~alpha:1.0 (tile k k) (tile k j)
    | Task.Trsm_u (i, k) ->
      (* A_ik <- A_ik U_kk^-1 *)
      Blas.trsm ~side:Blas.Right ~uplo:Blas.Upper ~alpha:1.0 (tile k k) (tile i k)
    | Task.Gemm (i, j, k) -> Blas.gemm ~alpha:(-1.0) (tile i k) (tile k j) ~beta:1.0 (tile i j)
    | op -> invalid_arg ("Lu.tile_interp: unexpected op " ^ Task.op_name op)

let factor ?(exec = Runtime_api.Sequential) (t : Tile.t) =
  let interp = tile_interp t in
  ignore (Runtime_api.execute_exn ~interp exec (dag_ops ~nt:t.Tile.nt ~nb:t.Tile.nb))

let packed_interp (p : Xsc_tile.Packed.D.t) =
  let module P = Xsc_tile.Packed.D in
  let nb = p.P.nb in
  let buf = p.P.buf in
  let off = P.off p in
  fun (op : Task.op) ->
    match op with
    | Task.Getrf k -> Pblas.D.getrf_nopiv buf (off k k) ~nb
    | Task.Trsm_l (k, j) -> Pblas.D.trsm_llu buf (off k k) buf (off k j) ~nb
    | Task.Trsm_u (i, k) -> Pblas.D.trsm_ru buf (off k k) buf (off i k) ~nb
    | Task.Gemm (i, j, k) ->
      Pblas.D.gemm_nn ~alpha:(-1.0) buf (off i k) buf (off k j) buf (off i j) ~nb
    | op -> invalid_arg ("Lu.packed_interp: unexpected op " ^ Task.op_name op)

let factor_packed ?(exec = Runtime_api.Sequential) (p : Xsc_tile.Packed.D.t) =
  let dag = dag_ops ~nt:p.Xsc_tile.Packed.D.nt ~nb:p.Xsc_tile.Packed.D.nb in
  ignore (Runtime_api.execute_exn ~interp:(packed_interp p) exec dag)

let flops ~nt ~nb =
  let getrf_f, trsm_f, gemm_f = kernel_flops nb in
  let fnt = float_of_int nt in
  let trsm_n = fnt *. (fnt -. 1.0) in
  let gemm_n = fnt *. (fnt -. 1.0) *. ((2.0 *. fnt) -. 1.0) /. 6.0 in
  (fnt *. getrf_f) +. (trsm_n *. trsm_f) +. (gemm_n *. gemm_f)

let task_count ~nt =
  (* getrf: nt, trsm: nt(nt-1), gemm: sum k (nt-1-k)^2 = nt(nt-1)(2nt-1)/6 *)
  nt + (nt * (nt - 1)) + (nt * (nt - 1) * ((2 * nt) - 1) / 6)
