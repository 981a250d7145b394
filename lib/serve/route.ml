(* Request -> dataflow plan: the bridge between the serving layer and the
   shared task pool.

   A plan is the request's whole execution as data: a DAG, an interpreter
   binding its op tasks to the request's buffers, and a [finish]/[cleanup]
   pair run after the DAG drains. SPD solves route to the packed tiled
   Cholesky, diagonally dominant LU solves to the packed unpivoted LU;
   pivoting LU and GEMM (no op encoding) run as single-task closure DAGs —
   still pool-scheduled, deadline-tagged units, just without
   intra-request parallelism.

   A tiled plan's DAG is the whole solve, in three parts:
   - [pack] (task 0) acquires a tile-major buffer and a padded right-hand
     side from the process-wide scratch pool and packs the operand into
     them. It writes every tile the program reads (for Cholesky only the
     lower ones) and every block of the vector, so every other task
     depends on it. It stays one task: the serving benchmark's span
     ledger counts pack time and kernel time as disjoint segments;
   - the factorization's op tasks, closure-free;
   - one forward-sweep task per tile row, each runnable as soon as its
     tile row of the factor is final, then one backward-sweep task per
     block, last block first.
   Its structure depends only on (program, nt, nb), so it is built once
   per key and cached; a request copies the task array and binds only the
   closure tasks (pack and the sweeps) to its own buffers. [finish] copies
   the solution's head and releases the buffers.

   Bitwise determinism is the contract that makes the shared pool
   testable: the packed kernels update each element along a fixed
   k-ascending chain, and the sweep tasks run each block's rows in the
   order of the whole-vector solve, so any DAG-consistent interleaving —
   the pool under load, work stealing, preemption by urgent arrivals —
   produces results bitwise identical to [direct], the same plan executed
   sequentially on the calling domain. The isolation bench and the oracle
   tests lean on exactly this.

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

(* ---- tiled plans: one cached DAG per (program, nt, nb) ---- *)

type program = Chol | Lu

(* The cached structure. Closure tasks (pack, the sweeps) carry no body
   here; ops and every dependence array are shared read-only by all the
   requests that copy it ([Pool.submit] counts down its own copy of the
   indegrees). Forward sweep [bi] is task [sweeps + bi], backward sweep
   [bi] is task [sweeps + 2 nt - 1 - bi]. *)
type template = { dag : Dag.t; sweeps : int }

let build_template program ~nt ~nb =
  let tile i j = Task.datum i j ~stride:nt in
  (* the right-hand side's blocks, numbered after the tiles *)
  let yblk bi = (nt * nt) + bi in
  let range lo hi f = List.init (max 0 (hi - lo + 1)) (fun k -> f (lo + k)) in
  let ops =
    match program with
    | Chol -> Xsc_core.Cholesky.tasks_ops ~nt ~nb
    | Lu -> Xsc_core.Lu.tasks_ops ~nt ~nb
  in
  let n = nt * nb in
  let packed =
    List.concat
      (range 0 (nt - 1) (fun i ->
           range 0 (if program = Chol then i else nt - 1) (fun j -> Task.Write (tile i j))))
    @ range 0 (nt - 1) (fun bi -> Task.Write (yblk bi))
  in
  let pack =
    Task.make ~id:0 ~name:"pack" ~flops:(float_of_int (n * n))
      ~bytes:(8.0 *. float_of_int (nb * nb)) packed
  in
  let ops =
    List.map
      (fun (t : Task.t) ->
        Task.make ~id:(t.Task.id + 1) ~name:t.Task.name ~flops:t.Task.flops
          ~bytes:t.Task.bytes ?op:t.Task.op t.Task.accesses)
      ops
  in
  let sweeps = 1 + List.length ops in
  let sweep ~id ~name ~blocks bi tiles ys =
    Task.make ~id ~name:(Printf.sprintf "%s(%d)" name bi)
      ~flops:(2.0 *. float_of_int (nb * nb * blocks))
      ~bytes:(8.0 *. float_of_int (nb * nb * blocks))
      ((Task.Read_write (yblk bi) :: List.map (fun d -> Task.Read d) tiles)
      @ List.map (fun b -> Task.Read (yblk b)) ys)
  in
  let fwd =
    range 0 (nt - 1) (fun bi ->
        sweep ~id:(sweeps + bi) ~name:"fwd" ~blocks:(bi + 1) bi
          (range 0 bi (fun bj -> tile bi bj))
          (range 0 (bi - 1) Fun.id))
  in
  let bwd =
    range 0 (nt - 1) (fun k ->
        let bi = nt - 1 - k in
        sweep ~id:(sweeps + nt + k) ~name:"bwd" ~blocks:(nt - bi) bi
          (range bi (nt - 1) (fun bj -> if program = Chol then tile bj bi else tile bi bj))
          (range (bi + 1) (nt - 1) Fun.id))
  in
  { dag = Dag.build ((pack :: ops) @ fwd @ bwd); sweeps }

(* Keys are bounded by the tile counts in use. A miss builds outside the
   lock; a racing builder's equal template is dropped. *)
let templates : (program * int * int, template) Hashtbl.t = Hashtbl.create 8
let templates_mu = Mutex.create ()

let template program ~nt ~nb =
  let key = (program, nt, nb) in
  match Mutex.protect templates_mu (fun () -> Hashtbl.find_opt templates key) with
  | Some tpl -> tpl
  | None ->
    let tpl = build_template program ~nt ~nb in
    Mutex.protect templates_mu (fun () ->
        match Hashtbl.find_opt templates key with
        | Some tpl -> tpl
        | None ->
          Hashtbl.add templates key tpl;
          tpl)

(* One request's buffers, acquired by its pack task. *)
type bufs = { fac : PD.t; y : float array; run_op : Task.op -> unit }

let wrap_interp harness ~key interp =
  match harness with
  | None -> interp
  | Some h -> Harness.wrap_interp_key h ~key interp

let tiled_plan ~harness ~key ~nb program a b =
  let n = a.Mat.rows in
  let padded = (n + nb - 1) / nb * nb in
  let nt = padded / nb in
  let tpl = template program ~nt ~nb in
  let cell : bufs option ref = ref None in
  let bufs () =
    match !cell with
    | Some s -> s
    | None -> assert false (* every other task is a DAG successor of pack *)
  in
  let lower, interp_of, fwd, bwd =
    match program with
    | Chol -> (true, Xsc_core.Cholesky.packed_interp, PD.potrs_fwd, PD.potrs_bwd)
    | Lu -> (false, Xsc_core.Lu.packed_interp, PD.getrs_fwd, PD.getrs_bwd)
  in
  let pack () =
    let fac = Scratch.acquire_packed ~n:padded ~nb in
    let y = Scratch.acquire_vec padded in
    cell := Some { fac; y; run_op = interp_of fac };
    PD.pack_padded ~lower fac a;
    Array.blit b 0 y 0 n;
    Array.fill y n (padded - n) 0.0
  in
  let tasks = Array.copy tpl.dag.Dag.tasks in
  let bind id run = tasks.(id) <- { (tasks.(id)) with Task.run = Some run } in
  bind 0 pack;
  for bi = 0 to nt - 1 do
    bind (tpl.sweeps + bi) (fun () ->
        let s = bufs () in
        fwd s.fac s.y bi);
    bind
      (tpl.sweeps + (2 * nt) - 1 - bi)
      (fun () ->
        let s = bufs () in
        bwd s.fac s.y bi)
  done;
  let release () =
    match !cell with
    | Some s ->
      cell := None;
      Scratch.release_vec s.y;
      Scratch.release_packed s.fac
    | None -> ()
  in
  {
    dag = { (tpl.dag) with Dag.tasks };
    interp = Some (wrap_interp harness ~key (fun op -> (bufs ()).run_op op));
    (* identity pad rows solve to b's zero pad, so the head is the answer *)
    finish =
      (fun () ->
        let x = Array.sub (bufs ()).y 0 n in
        release ();
        Request.Vector x);
    cleanup = release;
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
  | Request.Spd_solve (a, b) -> tiled_plan ~harness ~key ~nb Chol a b
  | Request.Lu_solve (a, b) when strictly_diag_dominant a ->
    tiled_plan ~harness ~key ~nb Lu a b
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
