(* Request -> dataflow plan: the bridge between the serving layer and the
   shared task pool.

   A plan is the request's whole execution as data: a DAG whose first task
   packs the operand into a tile-major buffer from the process-wide
   scratch pool, the factorization as closure-free op tasks over that
   buffer, an interpreter binding the ops to the buffer, and a
   [finish]/[cleanup] pair run after the DAG drains. SPD solves route to the packed tiled Cholesky,
   diagonally dominant LU solves to the packed unpivoted LU; pivoting LU
   and GEMM (no op encoding) run as single-task closure DAGs — still
   pool-scheduled, deadline-tagged units, just without intra-request
   parallelism.

   Bitwise determinism is the contract that makes the shared pool
   testable: the packed kernels update each element along a fixed
   k-ascending chain, so any DAG-consistent interleaving — the pool under
   load, work stealing, preemption by urgent arrivals — produces results
   bitwise identical to [direct], the same plan executed sequentially on
   the calling domain. The isolation bench and the oracle tests lean on
   exactly this.

   Fault injection: with a harness, op-task plans wrap their interpreter
   in [Harness.wrap_interp_key] (first op of the attempt raises when the
   request id is targeted) and closure plans wrap the closure in
   [Harness.wrap_thunk] — same hash, same fired-set, so a seeded storm
   injects the same request set on every path. Build a fresh plan per
   attempt: a replan after a transient fault runs clean. *)

open Xsc_linalg
module Task = Xsc_runtime.Task
module Dag = Xsc_runtime.Dag
module PD = Xsc_tile.Packed.D
module Harness = Xsc_resilience.Harness
module Cg = Xsc_sparse.Cg
module Mg = Xsc_sparse.Mg

exception Non_convergence of string

let () =
  Printexc.register_printer (function
    | Non_convergence msg -> Some ("Route.Non_convergence: " ^ msg)
    | _ -> None)

type t = {
  dag : Dag.t;
  interp : (Task.op -> unit) option;
  finish : unit -> Request.solution;
  cleanup : unit -> unit;
  tiled : bool;
}

let default_nb () = Xsc_tile.Packed.tuned_nb ~fallback:64

(* Solve against the packed factor in place on a pooled padded vector
   (identity pad rows solve to b's zero pad, so the head is unaffected),
   release the plan's scratch, and return the head: the solve allocates
   only the n-vector it returns. [solve] is [PD.potrs] for a Cholesky
   factor, [PD.getrs_nopiv] for an unpivoted LU. *)
let packed_finish solve cell n padded b () =
  let p = match !cell with Some p -> p | None -> assert false in
  let y = Scratch.acquire_vec padded in
  Array.blit b 0 y 0 n;
  Array.fill y n (padded - n) 0.0;
  solve p y;
  let x = Array.sub y 0 n in
  Scratch.release_vec y;
  Scratch.release_packed p;
  cell := None;
  Request.Vector x

let release_cell cell () =
  match !cell with
  | Some p ->
    Scratch.release_packed p;
    cell := None
  | None -> ()

(* Prepend the pack task (id 0, writes every tile) to an op task list
   (ids shifted by one; accesses use the same [stride = nt] datum ids, so
   Dag.build derives pack -> everything). *)
let with_pack_task ~nt ~nb ~padded pack ops =
  let datums = ref [] in
  for i = nt - 1 downto 0 do
    for j = nt - 1 downto 0 do
      datums := Task.Write (Task.datum i j ~stride:nt) :: !datums
    done
  done;
  let pack_task =
    Task.make ~id:0 ~name:"pack" ~flops:(float_of_int (padded * padded))
      ~bytes:(8.0 *. float_of_int (nb * nb)) ~run:pack !datums
  in
  let shifted =
    List.map
      (fun (t : Task.t) ->
        Task.make ~id:(t.Task.id + 1) ~name:t.Task.name ~flops:t.Task.flops
          ~bytes:t.Task.bytes ?run:t.Task.run ?op:t.Task.op t.Task.accesses)
      ops
  in
  Dag.build (pack_task :: shifted)

let wrap_interp harness ~key interp =
  match harness with
  | None -> interp
  | Some h -> Harness.wrap_interp_key h ~key interp

let tiled_plan ~harness ~key ~nb a b ops_of interp_of solve =
  let n = a.Mat.rows in
  let padded = (n + nb - 1) / nb * nb in
  let nt = padded / nb in
  let cell : PD.t option ref = ref None in
  let pack () =
    let p = Scratch.acquire_packed ~n:padded ~nb in
    PD.pack_padded p a;
    cell := Some p
  in
  let dag = with_pack_task ~nt ~nb ~padded pack (ops_of ~nt ~nb) in
  let interp0 op =
    match !cell with
    | Some p -> interp_of p op
    | None -> assert false (* every op task is a DAG successor of pack *)
  in
  {
    dag;
    interp = Some (wrap_interp harness ~key interp0);
    finish = packed_finish solve cell n padded b;
    cleanup = release_cell cell;
    tiled = true;
  }

(* Pivoting LU and GEMM have no op encoding: one closure task computing
   into a cell. Deadline-tagged and pool-isolated like any job, just
   without intra-request parallelism. *)
let thunk_plan ~harness ~key compute =
  let cell = ref None in
  let body =
    match harness with
    | None -> fun () -> cell := Some (compute ())
    | Some h -> fun () -> cell := Some (Harness.wrap_thunk h ~key compute)
  in
  let task = Task.make ~id:0 ~name:"solve" ~flops:0.0 ~run:body [ Task.Write 0 ] in
  {
    dag = Dag.build [ task ];
    interp = None;
    finish =
      (fun () -> match !cell with Some s -> s | None -> assert false);
    cleanup = (fun () -> cell := None);
    tiled = false;
  }

(* Sparse iterative solves run as a sequential CHAIN of chunk tasks: task 0
   builds the resumable stepper, each later task advances it one chunk of
   iterations. Every task writes datum 0, so [Dag.build] serialises the
   chain in id order — any pool interleaving performs exactly the
   sequential solve's arithmetic, keeping the bitwise-oracle contract. The
   pool can still preempt BETWEEN chunks, which bounds the head-of-line
   blocking a long bandwidth-bound solve inflicts on dense traffic; the
   concurrency cap on sparse classes (Server.class_caps) leans on this.
   Fault injection wraps the setup body ([Harness.wrap_thunk], same
   hash/fired-set as the dense closure plans). *)
let chain_plan ~harness ~key ~name ~chunks ~setup ~chunk ~finish_of =
  let cell = ref None in
  let setup_body =
    match harness with
    | None -> fun () -> cell := Some (setup ())
    | Some h -> fun () -> cell := Some (Harness.wrap_thunk h ~key setup)
  in
  let chunk_body () =
    match !cell with
    | Some s -> chunk s
    | None -> assert false (* chained after setup via datum 0 *)
  in
  let tasks =
    Task.make ~id:0 ~name:(name ^ "-setup") ~flops:0.0 ~run:setup_body
      [ Task.Write 0 ]
    :: List.init chunks (fun i ->
           Task.make ~id:(i + 1) ~name:(name ^ "-chunk") ~flops:0.0
             ~run:chunk_body [ Task.Write 0 ])
  in
  {
    dag = Dag.build tasks;
    interp = None;
    finish =
      (fun () ->
        match !cell with
        | Some s ->
          let sol = finish_of s in
          cell := None;
          sol
        | None -> assert false);
    cleanup = (fun () -> cell := None);
    tiled = false;
  }

(* Chunk sizing: small enough that a dense arrival never waits long behind
   one chunk, large enough that the chain's task count stays modest. *)
let cg_chunk_iters = 32
let mg_chunk_cycles = 2
let max_chain_chunks = 64

let chunking ~budget ~per =
  let chunks = min max_chain_chunks ((budget + per - 1) / per) in
  let per_chunk = (budget + chunks - 1) / chunks in
  (chunks, per_chunk)

let cg_plan ~harness ~key ~a ~b ~tol ~max_iter =
  let chunks, per_chunk = chunking ~budget:max_iter ~per:cg_chunk_iters in
  chain_plan ~harness ~key ~name:"cg" ~chunks
    ~setup:(fun () -> Cg.stepper ~max_iter ~tol a b)
    ~chunk:(fun s -> Cg.step s per_chunk)
    ~finish_of:(fun s ->
      (* Cg.result recomputes the TRUE residual b - A x: a stagnated or
         corrupted solve fails typed here, never returns silently wrong. *)
      let r = Cg.result s in
      if not r.Cg.converged then
        raise
          (Non_convergence
             (Printf.sprintf "cg: residual %.3e after %d iterations (cap %d)"
                r.Cg.residual_norm r.Cg.iterations max_iter));
      Request.Vector r.Cg.x)

let mg_plan ~harness ~key ~grid ~levels ~b ~tol ~max_cycles =
  let chunks, per_chunk = chunking ~budget:max_cycles ~per:mg_chunk_cycles in
  chain_plan ~harness ~key ~name:"mg" ~chunks
    ~setup:(fun () ->
      let hier = Mg.create ~levels grid in
      Mg.stepper ~tol ~max_cycles hier b)
    ~chunk:(fun s -> Mg.step s per_chunk)
    ~finish_of:(fun s ->
      let x, cycles = Mg.solution s in
      if not (Mg.converged s) then
        raise
          (Non_convergence
             (Printf.sprintf "mg: no convergence after %d cycles (cap %d)"
                cycles max_cycles));
      Request.Vector x)

let strictly_diag_dominant (a : Mat.t) =
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

let plan ?harness ?nb ~key (payload : Request.payload) =
  let nb = match nb with Some nb -> nb | None -> default_nb () in
  match payload with
  | Request.Spd_solve (a, b) ->
    tiled_plan ~harness ~key ~nb a b Xsc_core.Cholesky.tasks_ops
      Xsc_core.Cholesky.packed_interp PD.potrs
  | Request.Lu_solve (a, b) when strictly_diag_dominant a ->
    tiled_plan ~harness ~key ~nb a b Xsc_core.Lu.tasks_ops Xsc_core.Lu.packed_interp
      PD.getrs_nopiv
  | Request.Lu_solve (a, b) ->
    thunk_plan ~harness ~key (fun () -> Request.Vector (Lapack.lu_solve a b))
  | Request.Gemm (a, b) ->
    thunk_plan ~harness ~key (fun () ->
        let ra, _ = Mat.dims a and _, cb = Mat.dims b in
        let c = Mat.create ra cb in
        Blas.gemm ~alpha:1.0 a b ~beta:0.0 c;
        Request.Matrix c)
  | Request.Cg_solve { a; b; tol; max_iter } ->
    cg_plan ~harness ~key ~a ~b ~tol ~max_iter
  | Request.Mg_solve { grid; levels; b; tol; max_cycles } ->
    mg_plan ~harness ~key ~grid ~levels ~b ~tol ~max_cycles

(* The per-request oracle: the same plan, executed sequentially on the
   calling domain with no faults. Any pool execution of an equal plan is
   bitwise identical (packed kernels are schedule-independent). *)
let direct ?nb (payload : Request.payload) =
  let p = plan ?nb ~key:(-1) payload in
  match
    Array.iter
      (fun task -> Xsc_runtime.Real_exec.exec_body p.interp task)
      p.dag.Dag.tasks
  with
  | () -> p.finish ()
  | exception e ->
    p.cleanup ();
    raise e
