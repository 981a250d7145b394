type policy =
  | Bsp
  | List_critical_path
  | List_fifo
  | Work_stealing of int

type config = {
  workers : int;
  rate : float;
  task_overhead : float;
  barrier_cost : float;
  comm_cost : bytes:float -> float;
}

let config ?(task_overhead = 5e-7) ?(barrier_cost = 5e-6) ?(comm_cost = fun ~bytes:_ -> 0.0)
    ~workers ~rate () =
  if workers <= 0 then invalid_arg "Sim_exec.config: workers must be positive";
  if rate <= 0.0 then invalid_arg "Sim_exec.config: rate must be positive";
  { workers; rate; task_overhead; barrier_cost; comm_cost }

type result = {
  makespan : float;
  utilization : float;
  comm_time : float;
  barriers : int;
  trace : Trace.t;
  order : int list;
}

let duration cfg (task : Task.t) = cfg.task_overhead +. (task.Task.flops /. cfg.rate)

(* ---- BSP: levels with global barriers, LPT packing inside a level ---- *)

let run_bsp cfg (dag : Dag.t) =
  let trace = Trace.create ~workers:cfg.workers in
  let clock = ref 0.0 in
  let order = ref [] in
  let barriers = ref 0 in
  Array.iter
    (fun level_tasks ->
      let tasks =
        List.sort
          (fun a b -> compare dag.Dag.tasks.(b).Task.flops dag.Dag.tasks.(a).Task.flops)
          level_tasks
      in
      let free = Array.make cfg.workers !clock in
      List.iter
        (fun id ->
          (* LPT: put the next-longest task on the least loaded worker *)
          let w = ref 0 in
          for i = 1 to cfg.workers - 1 do
            if free.(i) < free.(!w) then w := i
          done;
          let t = dag.Dag.tasks.(id) in
          let start = free.(!w) in
          let finish = start +. duration cfg t in
          free.(!w) <- finish;
          Trace.add trace { Trace.task = id; name = t.Task.name; worker = !w; start; finish };
          order := id :: !order)
        tasks;
      let level_end = Array.fold_left max !clock free in
      clock := level_end +. cfg.barrier_cost;
      incr barriers)
    dag.Dag.levels;
  let makespan = Trace.makespan trace in
  {
    makespan = max makespan (!clock -. cfg.barrier_cost);
    utilization =
      (if makespan <= 0.0 then 0.0
       else Trace.busy_time trace /. (float_of_int cfg.workers *. !clock));
    comm_time = 0.0;
    barriers = !barriers;
    trace;
    order = List.rev !order;
  }

(* ---- greedy list scheduling with placement-aware communication ---- *)

(* Ready tasks live in a priority heap; each scheduling step places the
   top-priority ready task on the worker giving the earliest finish among
   the predecessors' workers (no transfer) and the globally earliest-free
   worker (cheapest slot). *)

module Heap = struct
  (* max-heap on (priority, -id) *)
  type t = { mutable arr : (float * int) array; mutable size : int }

  let create () = { arr = Array.make 64 (0.0, 0); size = 0 }

  let better (p1, i1) (p2, i2) = p1 > p2 || (p1 = p2 && i1 < i2)

  let push h x =
    if h.size = Array.length h.arr then begin
      let bigger = Array.make (2 * h.size) (0.0, 0) in
      Array.blit h.arr 0 bigger 0 h.size;
      h.arr <- bigger
    end;
    h.arr.(h.size) <- x;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while
      !i > 0
      &&
      let parent = (!i - 1) / 2 in
      better h.arr.(!i) h.arr.(parent)
    do
      let parent = (!i - 1) / 2 in
      let tmp = h.arr.(!i) in
      h.arr.(!i) <- h.arr.(parent);
      h.arr.(parent) <- tmp;
      i := parent
    done

  let pop h =
    let top = h.arr.(0) in
    h.size <- h.size - 1;
    h.arr.(0) <- h.arr.(h.size);
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let best = ref !i in
      if l < h.size && better h.arr.(l) h.arr.(!best) then best := l;
      if r < h.size && better h.arr.(r) h.arr.(!best) then best := r;
      if !best = !i then continue_ := false
      else begin
        let tmp = h.arr.(!i) in
        h.arr.(!i) <- h.arr.(!best);
        h.arr.(!best) <- tmp;
        i := !best
      end
    done;
    top

  let is_empty h = h.size = 0
end

let run_list cfg (dag : Dag.t) ~priority =
  let n = Dag.n_tasks dag in
  let trace = Trace.create ~workers:cfg.workers in
  let free = Array.make cfg.workers 0.0 in
  (* min-heap of (free_time, worker) with lazy invalidation *)
  let free_heap = Heap.create () in
  for w = 0 to cfg.workers - 1 do
    Heap.push free_heap (0.0, w) (* negate later; we need min — store negated *)
  done;
  (* Heap is a max-heap; store negated times for min behaviour. *)
  let push_free w t = Heap.push free_heap (-.t, w) in
  let rec pop_earliest_free () =
    let neg_t, w = Heap.pop free_heap in
    if -.neg_t = free.(w) then w
    else pop_earliest_free () (* stale entry *)
  in
  let finish_time = Array.make n 0.0 in
  let placed_on = Array.make n (-1) in
  let remaining = Array.copy dag.Dag.indegree in
  let ready = Heap.create () in
  List.iter (fun id -> Heap.push ready (priority id, -id)) (Dag.sources dag);
  let comm_total = ref 0.0 in
  let order = ref [] in
  let scheduled = ref 0 in
  while not (Heap.is_empty ready) do
    let _, neg_id = Heap.pop ready in
    let id = -neg_id in
    let task = dag.Dag.tasks.(id) in
    (* candidate workers: predecessors' hosts + earliest free *)
    let earliest = pop_earliest_free () in
    push_free earliest free.(earliest);
    let candidates =
      earliest
      :: List.filter_map
           (fun p -> if placed_on.(p) >= 0 then Some placed_on.(p) else None)
           dag.Dag.preds.(id)
    in
    let eval w =
      let ready_t =
        List.fold_left
          (fun acc p ->
            let avail =
              finish_time.(p)
              +.
              if placed_on.(p) = w then 0.0
              else cfg.comm_cost ~bytes:dag.Dag.tasks.(p).Task.bytes
            in
            max acc avail)
          0.0 dag.Dag.preds.(id)
      in
      let start = max ready_t free.(w) in
      (start, start +. duration cfg task)
    in
    let best_w = ref (List.hd candidates) in
    let best_start, best_finish =
      let s, f = eval !best_w in
      (ref s, ref f)
    in
    List.iter
      (fun w ->
        let s, f = eval w in
        if f < !best_finish then begin
          best_w := w;
          best_start := s;
          best_finish := f
        end)
      (List.tl candidates);
    let w = !best_w in
    (* account transfer delays actually paid *)
    List.iter
      (fun p ->
        if placed_on.(p) <> w then
          comm_total := !comm_total +. cfg.comm_cost ~bytes:dag.Dag.tasks.(p).Task.bytes)
      dag.Dag.preds.(id);
    placed_on.(id) <- w;
    finish_time.(id) <- !best_finish;
    free.(w) <- !best_finish;
    push_free w !best_finish;
    Trace.add trace
      { Trace.task = id; name = task.Task.name; worker = w; start = !best_start; finish = !best_finish };
    order := id :: !order;
    incr scheduled;
    List.iter
      (fun s ->
        remaining.(s) <- remaining.(s) - 1;
        if remaining.(s) = 0 then Heap.push ready (priority s, -s))
      dag.Dag.succs.(id)
  done;
  if !scheduled <> n then failwith "Sim_exec.run_list: DAG has a cycle or unreachable tasks";
  {
    makespan = Trace.makespan trace;
    utilization = Trace.utilization trace;
    comm_time = !comm_total;
    barriers = 0;
    trace;
    order = List.rev !order;
  }

let run cfg policy dag =
  match policy with
  | Bsp -> run_bsp cfg dag
  | List_critical_path ->
    let bl = Dag.bottom_level dag in
    run_list cfg dag ~priority:(fun id -> bl.(id))
  | List_fifo ->
    let n = Dag.n_tasks dag in
    run_list cfg dag ~priority:(fun id -> float_of_int (n - id))
  | Work_stealing seed ->
    let rng = Xsc_util.Rng.create seed in
    let n = Dag.n_tasks dag in
    let noise = Array.init n (fun _ -> Xsc_util.Rng.uniform rng) in
    run_list cfg dag ~priority:(fun id -> noise.(id))

let speedup ~baseline r = baseline.makespan /. r.makespan

let perfect_time cfg dag = Dag.total_flops dag /. (float_of_int cfg.workers *. cfg.rate)

let critical_time cfg dag = Dag.critical_path_flops dag /. cfg.rate
