module Clock = Xsc_obs.Clock
module Metrics = Xsc_obs.Metrics
module Span = Xsc_obs.Span

type stats = {
  elapsed : float;
  tasks : int;
  workers : int;
  steals : int;
  steal_attempts : int;
  parks : int;
  park_time : float;
  trace : Trace.t option;
}

type failure = {
  failed_task : int;
  failed_name : string;
  failed_worker : int;
  error : exn;
}

exception Task_failed of failure

let () =
  Printexc.register_printer (function
    | Task_failed f ->
      Some
        (Printf.sprintf "Real_exec.Task_failed(task %d %s on worker %d: %s)"
           f.failed_task f.failed_name f.failed_worker (Printexc.to_string f.error))
    | _ -> None)

(* Counters live in the process-wide registry (cumulative). *)
let m_tasks = Metrics.counter "runtime.tasks_executed"
let m_barrier_ns = Metrics.counter "runtime.barrier_wait_ns"
let m_failures = Metrics.counter "runtime.task_failures"

let closure_of (task : Task.t) =
  match task.Task.run with
  | Some f -> f
  | None -> invalid_arg ("Real_exec: task without closure: " ^ task.Task.name)

(* Task bodies come in two forms: a [run] closure, or a closure-free
   [Task.op] dispatched through the caller's interpreter. A task carries
   one or the other; a DAG may mix them (a fault-tolerant step runs op
   tasks beside closure checksum tasks). Without an interpreter only
   closures are runnable. The dispatch is one branch on an immediate tag —
   no allocation, nothing for the GC to scan in the steal loop. *)
let[@inline] exec_body interp (task : Task.t) =
  match interp with
  | Some f -> (
    match task.Task.op with Some op -> f op | None -> closure_of task ())
  | None -> closure_of task ()

let check_bodies interp (dag : Dag.t) =
  Array.iter
    (fun (t : Task.t) ->
      let ok =
        match (interp, t.Task.op) with
        | Some _, Some _ -> true
        | _ -> Option.is_some t.Task.run
      in
      if not ok then invalid_arg ("Real_exec: task without body: " ^ t.Task.name))
    dag.Dag.tasks

(* Causal spans: the submitting domain's ambient request context, captured
   once at run entry and re-seated around every task body, so a task run
   on another domain still parents onto the request that submitted the
   DAG. Only present when the submitter's context names a collector —
   otherwise the per-task cost is the [None] branch. *)
let ambient_ctx () =
  match Span.current () with Some { Span.sink = Some _; _ } as c -> c | _ -> None

let[@inline] with_task_span sctx ~wid (task : Task.t) f =
  match sctx with
  | Some ({ Span.sink = Some col; _ } as ctx) ->
    let t0 = Clock.now_ns () in
    let note () =
      Span.record col
        {
          Span.request = ctx.Span.request;
          span = Span.fresh_id ();
          parent = ctx.Span.span;
          phase = "task";
          name = task.Task.name;
          lane = wid;
          attempt = 0;
          start_ns = t0;
          finish_ns = Clock.now_ns ();
        }
    in
    (match f () with
    | v ->
      note ();
      v
    | exception e ->
      note ();
      raise e)
  | _ -> f ()

(* ---- per-task trace stamps ----

   A traced run carries one preallocated int array, three entries per
   task: the worker that ran it, its start and its finish (monotonic ns;
   worker -1 until the task runs). Each task is run exactly once, so each
   triple has a single writer and no synchronisation is needed beyond the
   run's own completion; the array is read only after that. *)

let stamps ?trace (dag : Dag.t) =
  let on =
    match trace with
    | Some b -> b
    | None -> (
      match Sys.getenv_opt "XSC_TRACE" with
      | None | Some ("" | "0" | "false") -> false
      | Some _ -> true)
  in
  if on then Some (Array.make (3 * Dag.n_tasks dag) (-1)) else None

(* One branch per task when untraced; the finish stamp marks the body
   only (successor release is scheduler time, not kernel time). *)
let[@inline] run_body ~sctx ~stamps ~wid interp (task : Task.t) =
  match stamps with
  | None -> with_task_span sctx ~wid task (fun () -> exec_body interp task)
  | Some s -> (
    let i = 3 * task.Task.id in
    s.(i) <- wid;
    s.(i + 1) <- Clock.now_ns ();
    match with_task_span sctx ~wid task (fun () -> exec_body interp task) with
    | () -> s.(i + 2) <- Clock.now_ns ()
    | exception e ->
      s.(i + 2) <- Clock.now_ns ();
      raise e)

(* Stamps to a [Trace.t], rebased to [t0_ns] so the Gantt starts at zero
   (clamped: a fork-join worker can start its first task a hair before
   worker 0 records t0). Tasks that never ran are absent. *)
let trace_of_stamps (dag : Dag.t) ~workers ~t0_ns s =
  let tr = Trace.create ~workers in
  Array.iteri
    (fun id (task : Task.t) ->
      let worker = s.(3 * id) in
      if worker >= 0 then begin
        let start = Float.max 0.0 (Clock.ns_to_s (s.((3 * id) + 1) - t0_ns)) in
        let finish = Float.max start (Clock.ns_to_s (s.((3 * id) + 2) - t0_ns)) in
        Trace.add tr { Trace.task = id; name = task.Task.name; worker; start; finish }
      end)
    dag.Dag.tasks;
  tr

let failure_of ~wid (task : Task.t) error =
  { failed_task = task.Task.id; failed_name = task.Task.name; failed_worker = wid; error }

(* Run [order] one task after another on the calling domain. *)
let run_inline ?interp ?trace ~workers (dag : Dag.t) order =
  let n = Dag.n_tasks dag in
  let stamps = if n = 0 then None else stamps ?trace dag in
  let sctx = ambient_ctx () in
  let t0 = Clock.now_ns () in
  Array.iter
    (fun id ->
      let task = dag.Dag.tasks.(id) in
      match run_body ~sctx ~stamps ~wid:0 interp task with
      | () -> ()
      | exception e ->
        Metrics.incr m_failures;
        raise (Task_failed (failure_of ~wid:0 task e)))
    order;
  let elapsed = Clock.ns_to_s (Clock.now_ns () - t0) in
  Metrics.add m_tasks n;
  {
    elapsed;
    tasks = n;
    workers;
    steals = 0;
    steal_attempts = 0;
    parks = 0;
    park_time = 0.0;
    trace = Option.map (trace_of_stamps dag ~workers:1 ~t0_ns:t0) stamps;
  }

let run_sequential ?interp ?trace (dag : Dag.t) =
  check_bodies interp dag;
  run_inline ?interp ?trace ~workers:1 dag (Array.init (Dag.n_tasks dag) Fun.id)

(* Sense-reversing barrier for the fork-join pool. Its cost *is* the
   phenomenon run_forkjoin measures, so a plain mutex + condvar is the
   honest implementation of the classical BSP barrier. *)
type barrier = {
  bar_mutex : Mutex.t;
  bar_cond : Condition.t;
  mutable bar_count : int;
  mutable bar_sense : bool;
  bar_parties : int;
}

let barrier_make parties =
  {
    bar_mutex = Mutex.create ();
    bar_cond = Condition.create ();
    bar_count = 0;
    bar_sense = false;
    bar_parties = parties;
  }

let barrier_wait b =
  Mutex.lock b.bar_mutex;
  let my_sense = not b.bar_sense in
  b.bar_count <- b.bar_count + 1;
  if b.bar_count = b.bar_parties then begin
    b.bar_count <- 0;
    b.bar_sense <- my_sense;
    Condition.broadcast b.bar_cond
  end
  else
    while b.bar_sense <> my_sense do
      Condition.wait b.bar_cond b.bar_mutex
    done;
  Mutex.unlock b.bar_mutex

let run_forkjoin ?interp ?trace ~workers (dag : Dag.t) =
  if workers < 1 then invalid_arg "Real_exec.run_forkjoin: workers < 1";
  check_bodies interp dag;
  let n = Dag.n_tasks dag in
  let levels = Array.map Array.of_list dag.Dag.levels in
  let nlevels = Array.length levels in
  if n = 0 || workers = 1 then
    run_inline ?interp ?trace ~workers dag (Array.concat (Array.to_list levels))
  else begin
    let stamps = stamps ?trace dag in
    (* One fixed pool of domains, one barrier per level: the BSP-vs-DAG gap
       then measures barrier idle time, not repeated domain spawn cost. *)
    let barrier = barrier_make workers in
    let barrier_ns = Array.make workers 0 in
    (* On a task-body exception the failing worker records the failure and
       raises the [aborted] flag, but every worker — including the failing
       one — keeps attending every remaining level barrier (skipping the
       task bodies): peers are never left waiting on a barrier that will
       not fill, and the joins below always complete. *)
    let aborted = Atomic.make false in
    let failure = Atomic.make None in
    let sctx = ambient_ctx () in
    let worker w =
      for l = 0 to nlevels - 1 do
        let tasks = levels.(l) in
        let ntasks = Array.length tasks in
        let lo = w * ntasks / workers and hi = (w + 1) * ntasks / workers in
        for i = lo to hi - 1 do
          let task = dag.Dag.tasks.(tasks.(i)) in
          if not (Atomic.get aborted) then
            match run_body ~sctx ~stamps ~wid:w interp task with
            | () -> ()
            | exception e ->
              ignore (Atomic.compare_and_set failure None (Some (failure_of ~wid:w task e)));
              Metrics.incr m_failures;
              Atomic.set aborted true
        done;
        (* the wait below *is* the BSP idle time the trace shows as gaps *)
        let t0 = Clock.now_ns () in
        barrier_wait barrier;
        barrier_ns.(w) <- barrier_ns.(w) + (Clock.now_ns () - t0)
      done
    in
    let domains =
      List.init (workers - 1) (fun w ->
          Domain.spawn (fun () ->
              Span.set_current sctx;
              (* start barrier: the timed region excludes the one-off spawns *)
              barrier_wait barrier;
              worker (w + 1)))
    in
    barrier_wait barrier;
    let t0 = Clock.now_ns () in
    worker 0;
    (* worker 0 passed the final barrier, so every task has completed *)
    let elapsed = Clock.ns_to_s (Clock.now_ns () - t0) in
    List.iter Domain.join domains;
    (match Atomic.get failure with Some f -> raise (Task_failed f) | None -> ());
    let total_barrier_ns = Array.fold_left ( + ) 0 barrier_ns in
    Metrics.add m_tasks n;
    Metrics.add m_barrier_ns total_barrier_ns;
    {
      elapsed;
      tasks = n;
      workers;
      steals = 0;
      steal_attempts = 0;
      parks = 0;
      park_time = Clock.ns_to_s total_barrier_ns;
      trace = Option.map (trace_of_stamps dag ~workers ~t0_ns:t0) stamps;
    }
  end

let default_workers () = min 8 (Domain.recommended_domain_count ())
