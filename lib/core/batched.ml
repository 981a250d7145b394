open Xsc_linalg
module Task = Xsc_runtime.Task
module Dag = Xsc_runtime.Dag

(* Batched kernels are embarrassingly parallel: task i writes datum i. A
   kernel exception must not vanish inside a worker domain — and must not
   poison the siblings: run_batch_results captures each problem's outcome
   in its own slot, so one singular matrix fails one slot while the rest of
   the batch completes. The raising wrappers (the historical interface)
   re-raise the first failure in index order after the whole batch ran. *)

let run_batch_results ?(exec = Runtime_api.Sequential) kernels =
  let n = Array.length kernels in
  let out = Array.make n (Error Not_found) in
  let tasks =
    List.init n (fun id ->
        let run () = out.(id) <- (try Ok (kernels.(id) ()) with e -> Error e) in
        Task.make ~id ~name:(Printf.sprintf "batch(%d)" id) ~flops:1.0 ~run
          [ Task.Write id ])
  in
  ignore (Runtime_api.execute_exn exec (Dag.build tasks));
  out

let run_batch ?exec kernels =
  run_batch_results ?exec kernels
  |> Array.iter (function Ok () -> () | Error e -> raise e)

let potrf_batch ?exec batch =
  run_batch ?exec (Array.map (fun m () -> Lapack.potrf m) batch)

let chol_solve_batch ?exec batch rhs =
  if Array.length batch <> Array.length rhs then
    invalid_arg "Batched.chol_solve_batch: batch size mismatch";
  let out = Array.map Array.copy rhs in
  run_batch ?exec
    (Array.mapi
       (fun i m () ->
         let f = Mat.copy m in
         Lapack.potrf f;
         Lapack.potrs f out.(i))
       batch);
  out

let tasks_potrf batch =
  Array.to_list
    (Array.mapi
       (fun id (m : Mat.t) ->
         Task.make ~id ~name:(Printf.sprintf "potrf(%d)" id)
           ~flops:(Lapack.potrf_flops m.rows)
           ~bytes:(8.0 *. float_of_int (m.rows * m.cols))
           ~run:(fun () -> Lapack.potrf m)
           [ Task.Write id ])
       batch)

let batch_flops_potrf batch =
  Array.fold_left (fun acc (m : Mat.t) -> acc +. Lapack.potrf_flops m.rows) 0.0 batch
