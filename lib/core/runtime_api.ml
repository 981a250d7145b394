type task = Xsc_runtime.Task.t
type dag = Xsc_runtime.Dag.t

type exec =
  | Sequential
  | Dataflow of int
  | Forkjoin of int
  | Pooled of Xsc_runtime.Pool.t

let execute ?interp exec dag =
  match exec with
  | Sequential -> Xsc_runtime.Real_exec.run_sequential ?interp dag
  | Dataflow workers -> Xsc_runtime.Pool.run_once ?interp ~workers dag
  | Forkjoin workers -> Xsc_runtime.Real_exec.run_forkjoin ?interp ~workers dag
  | Pooled pool -> Xsc_runtime.Pool.run ?interp pool dag

(* High-level drivers (Cholesky.factor & co.) surface the task body's own
   exception — Singular from a non-SPD matrix is the caller's contract,
   the Task_failed wrapper an executor detail. Fault-aware callers
   (Ft.drive) use [execute] and handle Task_failed themselves. *)
let execute_exn ?interp exec dag =
  try execute ?interp exec dag
  with Xsc_runtime.Real_exec.Task_failed f -> raise f.Xsc_runtime.Real_exec.error

let tile_bytes ~nb = 8.0 *. float_of_int (nb * nb)

type emit =
  ?run:(unit -> unit) -> ?op:Xsc_runtime.Task.op -> string -> float ->
  Xsc_runtime.Task.access list -> unit

let program ~nb (build : emit -> unit) =
  let bytes = tile_bytes ~nb in
  let acc = ref [] and next_id = ref 0 in
  let emit ?run ?op name flops accesses =
    acc := Xsc_runtime.Task.make ~id:!next_id ~name ~flops ~bytes ?run ?op accesses :: !acc;
    incr next_id
  in
  build emit;
  List.rev !acc

let emit_op (emit : emit) op flops accesses =
  emit ~op (Xsc_runtime.Task.op_name op) flops accesses

let datum = Xsc_runtime.Task.datum
