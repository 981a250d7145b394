(* The shared deadline-aware task pool: the one work-stealing runtime.
   It serves the tiled DAGs of every in-flight computation at once, and
   [run_once] runs a single DAG to completion on a transient pool.

   The pool keeps a fixed set of persistent worker domains and accepts
   DAG submissions dynamically: each [submit] registers a job (its own
   DAG, indegree counters and completion callback), injects the job's
   source tasks into a global priority queue ({!Pqueue}), and returns
   immediately. Tasks from any number of jobs interleave on per-worker
   Chase-Lev deques: a worker pushes the successors it makes ready onto
   its own deque (their input tiles are warm in its cache), pops LIFO,
   and steals FIFO from a random victim only when its own deque and the
   injection queue run dry. A job's completion is signalled by a per-task
   countdown, not a barrier, so no worker ever idles behind one
   computation's tail while another has ready work.

   Priority is the composite {!Prio} key — request deadline first
   (EDF down to task granularity), flops-weighted bottom level as the
   critical-path tie-break, then FIFO. It orders the injection queue, and
   it orders the ready successors a worker pushes onto its own deque
   (ascending, so the most urgent child sits at the LIFO end and runs next
   while its parent's output is cache-warm). Between tasks, every worker
   makes one cheap check (an atomic load) whether the injection queue
   holds work with a strictly earlier deadline than the task it just
   popped; if so it pushes the popped task back and takes the urgent one —
   that single yield point is what bounds a small request's queueing
   behind a large factorization to one task's service time instead of the
   whole factorization's.

   Failure isolation is per job: the first task body of a job that raises
   records the failure and marks the job aborted; the job's remaining
   tasks still flow through the deques (so the countdown drains and no
   handle is ever orphaned) but their bodies are skipped. Other jobs are
   untouched — one poisoned request cannot take down the pool.

   Span parentage and tracing are per job, not per pool: each job carries
   the span context it was submitted under, and every task body runs with
   that context re-seated, so task-level spans parent onto the right
   request even when tasks from many requests interleave on one domain. A
   traced job also carries its own stamp array ({!Real_exec.stamps}). *)

module Clock = Xsc_obs.Clock
module Metrics = Xsc_obs.Metrics
module Span = Xsc_obs.Span

let m_tasks = Metrics.counter "runtime.tasks_executed"
let m_steals = Metrics.counter "runtime.steals"
let m_steal_attempts = Metrics.counter "runtime.steal_attempts"
let m_parks = Metrics.counter "runtime.parks"
let m_park_ns = Metrics.counter "runtime.park_ns"
let m_failures = Metrics.counter "runtime.task_failures"
let m_jobs = Metrics.counter "pool.jobs_submitted"
let m_jobs_done = Metrics.counter "pool.jobs_completed"
let m_jobs_failed = Metrics.counter "pool.jobs_failed"
let m_callback_failures = Metrics.counter "pool.callback_failures"
let m_injected = Metrics.counter "pool.tasks_injected"
let m_yields = Metrics.counter "pool.deadline_yields"

(* Task handles pack (job slot, task id) into one immediate int so the
   Chase-Lev deques keep carrying unboxed ints: nothing for the GC to
   scan in the steal loop. *)
let tid_bits = 24
let tid_mask = (1 lsl tid_bits) - 1

type job = {
  slot : int;
  dag : Dag.t;
  interp : (Task.op -> unit) option;
  deadline_ns : int;
  jseq : int;
  bl : int array;  (* normalised bottom-level rank per task *)
  remaining : int Atomic.t array;
  completed : int Atomic.t;
  aborted : bool Atomic.t;
  failure : Real_exec.failure option Atomic.t;
  sctx : Span.ctx option;
  stamps : int array option;  (* per-task trace stamps when traced *)
  on_done : Real_exec.failure option -> worker:int -> unit;
}

type t = {
  workers : int;
  max_jobs : int;
  deques : Deque.t array;
  inj : Pqueue.t;
  jobs : job option Atomic.t array;
  mu : Mutex.t;  (* guards [free_slots] and [live] *)
  mutable free_slots : int list;
  mutable live : int;
  jseq_next : int Atomic.t;
  parked : int Atomic.t;
  park_mutex : Mutex.t;
  park_cond : Condition.t;
  stopping : bool Atomic.t;
  mutable domains : unit Domain.t array;
}

let key_of (job : job) tid =
  Prio.make ~deadline_ns:job.deadline_ns ~bl:job.bl.(tid) ~seq:job.jseq ~tid

let handle job tid = (job.slot lsl tid_bits) lor tid

let job_of t h =
  match Atomic.get t.jobs.(h lsr tid_bits) with
  | Some j -> j
  | None -> assert false (* a live handle always names a registered job *)

let wake_parked t =
  if Atomic.get t.parked > 0 then begin
    Mutex.lock t.park_mutex;
    Condition.broadcast t.park_cond;
    Mutex.unlock t.park_mutex
  end

let some_work t =
  Array.exists (fun d -> Deque.size d > 0) t.deques || not (Pqueue.is_empty t.inj)

(* ---- job completion ---- *)

let finish_job t (job : job) ~worker =
  let failure = Atomic.get job.failure in
  (match failure with
  | None -> Metrics.incr m_jobs_done
  | Some _ -> Metrics.incr m_jobs_failed);
  (* free the slot before the callback: [on_done] may itself submit a new
     job (dynamic insertion / continuation chaining) and must be able to
     claim this slot back *)
  Atomic.set t.jobs.(job.slot) None;
  Mutex.lock t.mu;
  t.free_slots <- job.slot :: t.free_slots;
  t.live <- t.live - 1;
  Mutex.unlock t.mu;
  (* the job is settled in the pool's books already: a raising callback is
     counted and contained, so it cannot take this worker lane down *)
  match job.on_done failure ~worker with
  | () -> ()
  | exception _ -> Metrics.incr m_callback_failures

(* ---- task execution on a worker ---- *)

let release_successors t wid (job : job) tid =
  let ready =
    List.filter
      (fun s -> Atomic.fetch_and_add job.remaining.(s) (-1) = 1)
      job.dag.Dag.succs.(tid)
  in
  (match ready with
  | [] -> ()
  | ready ->
    (* ascending priority, so the most urgent child ends on top of the
       LIFO end of this worker's deque and runs next *)
    let ordered =
      List.stable_sort (fun a b -> Prio.compare (key_of job a) (key_of job b)) ready
    in
    List.iter (fun s -> Deque.push t.deques.(wid) (handle job s)) ordered;
    wake_parked t);
  if Atomic.fetch_and_add job.completed 1 = Dag.n_tasks job.dag - 1 then
    finish_job t job ~worker:wid

let run_task t wid h =
  let job = job_of t h in
  let tid = h land tid_mask in
  let task = job.dag.Dag.tasks.(tid) in
  (if not (Atomic.get job.aborted) then
     match
       Span.with_current job.sctx (fun () ->
           Real_exec.run_body ~sctx:job.sctx ~stamps:job.stamps ~wid job.interp task)
     with
     | () -> ()
     | exception e ->
       ignore (Atomic.compare_and_set job.failure None (Some (Real_exec.failure_of ~wid task e)));
       Metrics.incr m_failures;
       Atomic.set job.aborted true);
  (* successors are released (and the countdown advanced) even for an
     aborted job, with bodies skipped: the job must drain so its slot can
     be freed and its callback fired exactly once *)
  release_successors t wid job tid

(* ---- worker loop ---- *)

(* How many failed steal sweeps before a worker parks, with exponential
   backoff between sweeps. Parking is the slow path (a mutex + condvar
   round trip against one CAS per steal), so an idle worker re-probes the
   victims a few times first — but each failed sweep doubles the pause
   before the next, so a starved worker stops hammering the victims'
   deque tops with CAS traffic. BENCH_0002 measured 16 attempts per
   successful steal with fixed 32-sweep spinning; bounded backoff cuts
   the probe budget per idle episode ~5x while the growing pauses keep
   the latency to discover new work comparable. *)
let max_sweeps = 6

let[@inline] backoff sweeps =
  let spins = 16 lsl min sweeps 8 in
  for _ = 1 to spins do
    Domain.cpu_relax ()
  done

let worker t wid =
  let my = t.deques.(wid) in
  let l_steals = ref 0 and l_attempts = ref 0 in
  let l_parks = ref 0 and l_park_ns = ref 0 and l_tasks = ref 0 and l_yields = ref 0 in
  let flush () =
    Metrics.add_to_shard m_steals ~shard:wid !l_steals;
    Metrics.add_to_shard m_steal_attempts ~shard:wid !l_attempts;
    Metrics.add_to_shard m_parks ~shard:wid !l_parks;
    Metrics.add_to_shard m_park_ns ~shard:wid !l_park_ns;
    Metrics.add_to_shard m_tasks ~shard:wid !l_tasks;
    Metrics.add_to_shard m_yields ~shard:wid !l_yields;
    l_steals := 0;
    l_attempts := 0;
    l_parks := 0;
    l_park_ns := 0;
    l_tasks := 0;
    l_yields := 0
  in
  let rand_state = ref (((wid + 1) * 0x9E3779B1) lor 1) in
  let rand_victim () =
    let x = !rand_state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 17) in
    let x = x lxor (x lsl 5) in
    rand_state := x;
    let v = x land max_int mod (t.workers - 1) in
    if v >= wid then v + 1 else v
  in
  let park () =
    Mutex.lock t.park_mutex;
    Atomic.incr t.parked;
    (* recheck under the lock: a producer publishes its push before
       reading [parked], so either it sees us and broadcasts, or we see
       its work here and never sleep *)
    if not (Atomic.get t.stopping) && not (some_work t) then begin
      incr l_parks;
      (* flush before sleeping: a long-lived pool's counters must be
         current while it idles, not held hostage in worker locals *)
      flush ();
      let t0 = Clock.now_ns () in
      Condition.wait t.park_cond t.park_mutex;
      l_park_ns := !l_park_ns + (Clock.now_ns () - t0)
    end;
    Atomic.decr t.parked;
    Mutex.unlock t.park_mutex
  in
  (* The deadline-isolation yield: a task just popped locally gives way
     when the injection queue holds strictly more urgent work (earlier
     deadline). The popped task goes back on our own LIFO end — it runs
     immediately after the urgent arrival, keeping its cache warmth. *)
  let yield_check h =
    let job = job_of t h in
    match Pqueue.pop_if_deadline_before t.inj job.deadline_ns with
    | Some (_, urgent) ->
      incr l_yields;
      Deque.push my h;
      urgent
    | None -> h
  in
  let rec local () =
    match Deque.pop my with
    | Some h ->
      let h = yield_check h in
      incr l_tasks;
      run_task t wid h;
      local ()
    | None -> (
      match Pqueue.pop t.inj with
      | Some (_, h) ->
        incr l_tasks;
        run_task t wid h;
        local ()
      | None -> hunt 0)
  and hunt sweeps =
    if Atomic.get t.stopping && not (some_work t) then ()
    else if t.workers = 1 || sweeps >= max_sweeps then begin
      park ();
      if Atomic.get t.stopping && not (some_work t) then () else local ()
    end
    else begin
      let rec sweep attempts =
        if attempts >= t.workers - 1 then begin
          backoff sweeps;
          hunt (sweeps + 1)
        end
        else begin
          let victim = rand_victim () in
          incr l_attempts;
          match Deque.steal t.deques.(victim) with
          | Deque.Stolen h ->
            incr l_steals;
            incr l_tasks;
            run_task t wid h;
            local ()
          | Deque.Empty | Deque.Abort -> sweep (attempts + 1)
        end
      in
      sweep 0
    end
  in
  local ();
  flush ()

(* ---- lifecycle ---- *)

let create ?(max_jobs = 4096) ~workers () =
  if workers < 1 then invalid_arg "Pool.create: workers < 1";
  if max_jobs < 1 then invalid_arg "Pool.create: max_jobs < 1";
  let t =
    {
      workers;
      max_jobs;
      deques = Array.init workers (fun _ -> Deque.create ~capacity:256 ());
      inj = Pqueue.create ();
      jobs = Array.init max_jobs (fun _ -> Atomic.make None);
      mu = Mutex.create ();
      free_slots = List.init max_jobs Fun.id;
      live = 0;
      jseq_next = Atomic.make 0;
      parked = Atomic.make 0;
      park_mutex = Mutex.create ();
      park_cond = Condition.create ();
      stopping = Atomic.make false;
      domains = [||];
    }
  in
  t.domains <- Array.init workers (fun wid -> Domain.spawn (fun () -> worker t wid));
  t

let live_jobs t =
  Mutex.lock t.mu;
  let n = t.live in
  Mutex.unlock t.mu;
  n

let submit_job ?interp ?(deadline_ns = max_int) ?sctx ~stamps t dag ~on_done =
  if Atomic.get t.stopping then invalid_arg "Pool.submit: pool is shut down";
  Real_exec.check_bodies interp dag;
  let n = Dag.n_tasks dag in
  if n > tid_mask then invalid_arg "Pool.submit: DAG too large";
  if n = 0 then on_done None ~worker:(-1)
  else begin
    let slot =
      Mutex.lock t.mu;
      match t.free_slots with
      | [] ->
        Mutex.unlock t.mu;
        invalid_arg "Pool.submit: too many concurrent jobs"
      | s :: rest ->
        t.free_slots <- rest;
        t.live <- t.live + 1;
        Mutex.unlock t.mu;
        s
    in
    let job =
      {
        slot;
        dag;
        interp;
        deadline_ns;
        jseq = Atomic.fetch_and_add t.jseq_next 1;
        bl = Prio.bl_ranks dag;
        remaining = Array.map Atomic.make dag.Dag.indegree;
        completed = Atomic.make 0;
        aborted = Atomic.make false;
        failure = Atomic.make None;
        sctx;
        stamps;
        on_done;
      }
    in
    Atomic.set t.jobs.(slot) (Some job);
    Metrics.incr m_jobs;
    let sources = Dag.sources dag in
    List.iter
      (fun tid ->
        Metrics.incr m_injected;
        Pqueue.push t.inj (key_of job tid) (handle job tid))
      sources;
    wake_parked t
  end

let submit ?interp ?deadline_ns ?sctx t dag ~on_done =
  submit_job ?interp ?deadline_ns ?sctx ~stamps:None t dag ~on_done

(* Blocking convenience: submit and wait for the job to drain. Must not be
   called from a pool worker (a worker waiting on its own pool's work is a
   lost lane, and with one worker a deadlock). The job parents onto the
   caller's ambient span context, like the sequential and fork-join runs. *)
let run ?interp ?deadline_ns ?trace t dag =
  let stamps = Real_exec.stamps ?trace dag in
  let mu = Mutex.create () and cv = Condition.create () in
  let result = ref None in
  let t0 = Clock.now_ns () in
  submit_job ?interp ?deadline_ns ?sctx:(Real_exec.ambient_ctx ()) ~stamps t dag
    ~on_done:(fun failure ~worker:_ ->
      let t1 = Clock.now_ns () in
      Mutex.lock mu;
      result := Some (failure, t1);
      Condition.broadcast cv;
      Mutex.unlock mu);
  Mutex.lock mu;
  while !result = None do
    Condition.wait cv mu
  done;
  let failure, t1 = Option.get !result in
  Mutex.unlock mu;
  (match failure with
  | Some f -> raise (Real_exec.Task_failed f)
  | None -> ());
  {
    Real_exec.elapsed = Clock.ns_to_s (t1 - t0);
    tasks = Dag.n_tasks dag;
    workers = t.workers;
    steals = 0;
    steal_attempts = 0;
    parks = 0;
    park_time = 0.0;
    trace = Option.map (Real_exec.trace_of_stamps dag ~workers:t.workers ~t0_ns:t0) stamps;
  }

let shutdown t =
  if not (Atomic.exchange t.stopping true) then begin
    (* workers exit when stopping && no work; wake the sleepers so they
       observe the flag. Live jobs still drain: stopping only stops the
       pool from idling forever, submissions are rejected from now on. *)
    Mutex.lock t.park_mutex;
    Condition.broadcast t.park_cond;
    Mutex.unlock t.park_mutex;
    Array.iter Domain.join t.domains
  end

let workers t = t.workers
(* One DAG on a pool of its own: the steal/park figures are the registry
   deltas over the pool's whole lifetime (spawn to join), which assumes no
   other work-stealing run overlaps it in this process. *)
let run_once ?interp ?trace ~workers dag =
  Real_exec.check_bodies interp dag;
  let steals = Metrics.counter_value m_steals
  and attempts = Metrics.counter_value m_steal_attempts
  and parks = Metrics.counter_value m_parks
  and park_ns = Metrics.counter_value m_park_ns in
  let t = create ~max_jobs:1 ~workers () in
  let stats = Fun.protect ~finally:(fun () -> shutdown t) (fun () -> run ?interp ?trace t dag) in
  {
    stats with
    Real_exec.steals = Metrics.counter_value m_steals - steals;
    steal_attempts = Metrics.counter_value m_steal_attempts - attempts;
    parks = Metrics.counter_value m_parks - parks;
    park_time = Clock.ns_to_s (Metrics.counter_value m_park_ns - park_ns);
  }
