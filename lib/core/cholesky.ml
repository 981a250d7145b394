open Xsc_linalg
module Tile = Xsc_tile.Tile
module Task = Xsc_runtime.Task
module Dag = Xsc_runtime.Dag

let kernel_flops nb =
  let fnb = float_of_int nb in
  let potrf = fnb *. fnb *. fnb /. 3.0 in
  let trsm = fnb *. fnb *. fnb in
  let syrk = fnb *. fnb *. (fnb +. 1.0) in
  let gemm = 2.0 *. fnb *. fnb *. fnb in
  (potrf, trsm, syrk, gemm)

(* Step k of the program, split where the fault-tolerant driver verifies:
   the panel (potrf, then the trsm column) and the trailing update (the
   syrk/gemm rows). [emit] receives each task's op, flops and accesses in
   program order; every runner of the factorization — strided, packed,
   fault-tolerant, simulated — builds from these two. *)
let panel ~nt ~nb k emit =
  let potrf_f, trsm_f, _, _ = kernel_flops nb in
  let datum i j = Task.datum i j ~stride:nt in
  emit (Task.Potrf k) potrf_f [ Task.Read_write (datum k k) ];
  for i = k + 1 to nt - 1 do
    emit (Task.Trsm (k, i)) trsm_f [ Task.Read (datum k k); Task.Read_write (datum i k) ]
  done

let update ~nt ~nb k emit =
  let _, _, syrk_f, gemm_f = kernel_flops nb in
  let datum i j = Task.datum i j ~stride:nt in
  for i = k + 1 to nt - 1 do
    emit (Task.Syrk (i, k)) syrk_f [ Task.Read (datum i k); Task.Read_write (datum i i) ];
    for j = k + 1 to i - 1 do
      emit
        (Task.Gemm (i, j, k))
        gemm_f
        [ Task.Read (datum i k); Task.Read (datum j k); Task.Read_write (datum i j) ]
    done
  done

(* Op-encoded bodies: one immediate-tagged word per task instead of a
   closure capturing tile views. Storage is bound only at execution time
   by an interpreter, so one DAG shape serves any backing layout. *)
let tasks_ops ~nt ~nb =
  Runtime_api.program ~nb (fun emit ->
      let emit = Runtime_api.emit_op emit in
      for k = 0 to nt - 1 do
        panel ~nt ~nb k emit;
        update ~nt ~nb k emit
      done)

let dag_ops ~nt ~nb = Dag.build (tasks_ops ~nt ~nb)

(* Interpreter binding the op coordinates to strided tiles: the Blas/Lapack
   reference kernels. *)
let tile_interp (t : Tile.t) =
  if t.Tile.mt <> t.Tile.nt then invalid_arg "Cholesky.tile_interp: matrix not square";
  let tile = Tile.tile t in
  fun (op : Task.op) ->
    match op with
    | Task.Potrf k -> Lapack.potrf (tile k k)
    | Task.Trsm (k, i) ->
      (* A_ik <- A_ik L_kk^-T *)
      Blas.trsm ~side:Blas.Right ~uplo:Blas.Lower ~trans:Blas.Trans ~alpha:1.0 (tile k k)
        (tile i k)
    | Task.Syrk (i, k) -> Blas.syrk ~uplo:Blas.Lower ~alpha:(-1.0) (tile i k) ~beta:1.0 (tile i i)
    | Task.Gemm (i, j, k) ->
      Blas.gemm ~transb:Blas.Trans ~alpha:(-1.0) (tile i k) (tile j k) ~beta:1.0 (tile i j)
    | op -> invalid_arg ("Cholesky.tile_interp: unexpected op " ^ Task.op_name op)

let factor ?(exec = Runtime_api.Sequential) (t : Tile.t) =
  let interp = tile_interp t in
  ignore (Runtime_api.execute_exn ~interp exec (dag_ops ~nt:t.Tile.nt ~nb:t.Tile.nb))

(* Interpreter binding the op coordinates to packed tile storage: the
   kernels are the Pblas C microkernels, whose operation order matches the
   strided Blas/Lapack reference bitwise. *)
let packed_interp (p : Xsc_tile.Packed.D.t) =
  let module P = Xsc_tile.Packed.D in
  let nb = p.P.nb in
  let buf = p.P.buf in
  let off = P.off p in
  fun (op : Task.op) ->
    match op with
    | Task.Potrf k -> Pblas.D.potrf buf (off k k) ~nb
    | Task.Trsm (k, i) -> Pblas.D.trsm_rlt buf (off k k) buf (off i k) ~nb
    | Task.Syrk (i, k) ->
      Pblas.D.syrk_ln ~alpha:(-1.0) buf (off i k) ~beta:1.0 buf (off i i) ~nb
    | Task.Gemm (i, j, k) ->
      Pblas.D.gemm_nt ~alpha:(-1.0) buf (off i k) buf (off j k) buf (off i j) ~nb
    | op -> invalid_arg ("Cholesky.packed_interp: unexpected op " ^ Task.op_name op)

let factor_packed ?(exec = Runtime_api.Sequential) (p : Xsc_tile.Packed.D.t) =
  let dag = dag_ops ~nt:p.Xsc_tile.Packed.D.nt ~nb:p.Xsc_tile.Packed.D.nb in
  ignore (Runtime_api.execute_exn ~interp:(packed_interp p) exec dag)

let flops ~nt ~nb =
  let potrf_f, trsm_f, syrk_f, gemm_f = kernel_flops nb in
  let fnt = float_of_int nt in
  let trsm_n = fnt *. (fnt -. 1.0) /. 2.0 in
  let syrk_n = trsm_n in
  let gemm_n = fnt *. (fnt -. 1.0) *. (fnt -. 2.0) /. 6.0 in
  (fnt *. potrf_f) +. (trsm_n *. trsm_f) +. (syrk_n *. syrk_f) +. (gemm_n *. gemm_f)

let task_count ~nt =
  nt + (nt * (nt - 1) / 2 * 2) + (nt * (nt - 1) * (nt - 2) / 6)
