(* Per-layer timings for the traced run, measured from outside the layers.

   The ledger splits each request of a traced served run into named,
   disjoint segments of its span records, from the scheduled send time to
   the root span's end:

     late      due -> submit                 (client, open loop only)
     wait      submit -> batch dispatch      (ingress, linger, pump wake-up, EDF, cap hold)
     dispatch  batch dispatch -> attempt     (Route.plan, batch siblings' submits)
     pool_queue attempt start -> first task  (per attempt)
     pack      union of pack task spans
     kernel    union of every other task span
     retry     attempt end -> next attempt   (backoff, resubmission)
     finish    last attempt end -> root end  (plan.finish, completion)

   Whatever the named segments do not cover (gaps between tasks, the
   pool's job completion) is the unattributed share.

   The direct replay runs each distinct instance through Route.plan ->
   Pool.run -> plan.finish on a pool of the benchmark's own, timing each
   call, every op through a wrapped interpreter, and every closure task
   (pack, sparse chunks) through a rebuilt DAG. *)

open Xsc_serve
module Span = Xsc_obs.Span
module Clock = Xsc_obs.Clock
module Task = Xsc_runtime.Task
module Dag = Xsc_runtime.Dag
module Pool = Xsc_runtime.Pool
module Fbuf = Client.Fbuf

(* ---- span ledger ---- *)

type ledger = {
  mutable late : int;
  mutable wait : int;
  mutable dispatch : int;
  mutable pool_queue : int;
  mutable pack : int;
  mutable kernel : int;
  mutable retry : int;
  mutable finish : int;
  mutable total : int;
  pool_queue_us : Fbuf.t;
  mutable records : int;  (** span records of the measured requests *)
  mutable requests : int;
  mutable problems : (string * int) list;  (** broken identity -> requests *)
}

(* Total length covered by a set of intervals. *)
let union_length spans =
  let sorted = List.sort compare spans in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (s, e) -> acc + (e - s))
    | (s, e) :: rest -> (
      match cur with
      | None -> go acc (Some (s, e)) rest
      | Some (cs, ce) when s <= ce -> go acc (Some (cs, max ce e)) rest
      | Some (cs, ce) -> go (acc + (ce - cs)) (Some (s, e)) rest)
  in
  go 0 None sorted

let ledger ~(records : Span.record list) ~(done_ : Client.done_rec list) =
  let l =
    {
      late = 0;
      wait = 0;
      dispatch = 0;
      pool_queue = 0;
      pack = 0;
      kernel = 0;
      retry = 0;
      finish = 0;
      total = 0;
      pool_queue_us = Fbuf.create ();
      records = 0;
      requests = 0;
      problems = [];
    }
  in
  let problem name =
    let n = try List.assoc name l.problems with Not_found -> 0 in
    l.problems <- (name, n + 1) :: List.remove_assoc name l.problems
  in
  let by_req = Hashtbl.create 4096 in
  List.iter (fun (r : Span.record) -> Hashtbl.add by_req r.Span.request r) records;
  List.iter
    (fun (d : Client.done_rec) ->
      let rs = Hashtbl.find_all by_req d.Client.id in
      l.records <- l.records + List.length rs;
      l.requests <- l.requests + 1;
      let phase p = List.filter (fun (r : Span.record) -> r.Span.phase = p) rs in
      let attempts =
        List.sort (fun (a : Span.record) b -> compare a.Span.attempt b.Span.attempt) (phase "attempt")
      in
      let tasks = phase "task" in
      match (phase "request", phase "wait", attempts) with
      | [ root ], [ wait ], (a0 :: _ as attempts) when List.length attempts = d.Client.retries + 1 ->
        if root.Span.start_ns <> d.Client.submit_ns || abs (root.Span.finish_ns - d.Client.finish_ns) > 1000
        then problem "root span differs from the completion";
        let segs = ref [] in
        let seg name s e =
          if e < s then problem (name ^ " segment is negative");
          segs := e - s :: !segs;
          e - s
        in
        l.late <- l.late + seg "late" d.Client.start_ns d.Client.submit_ns;
        l.wait <- l.wait + seg "wait" wait.Span.start_ns wait.Span.finish_ns;
        l.dispatch <- l.dispatch + seg "dispatch" wait.Span.finish_ns a0.Span.start_ns;
        let rec per_attempt = function
          | [] -> ()
          | (a : Span.record) :: rest ->
            let mine = List.filter (fun (t : Span.record) -> t.Span.parent = a.Span.span) tasks in
            (match mine with
            | [] -> problem "attempt without tasks"
            | _ ->
              let first = List.fold_left (fun m (t : Span.record) -> min m t.Span.start_ns) max_int mine in
              let q = seg "pool_queue" a.Span.start_ns first in
              l.pool_queue <- l.pool_queue + q;
              Fbuf.add l.pool_queue_us (float_of_int q /. 1e3);
              let iv (t : Span.record) = (t.Span.start_ns, t.Span.finish_ns) in
              let packs, others = List.partition (fun (t : Span.record) -> t.Span.name = "pack") mine in
              let p = union_length (List.map iv packs) and k = union_length (List.map iv others) in
              l.pack <- l.pack + p;
              l.kernel <- l.kernel + k;
              segs := p :: k :: !segs;
              if List.exists (fun (t : Span.record) -> t.Span.finish_ns > a.Span.finish_ns) mine then
                problem "task ends after its attempt");
            (match rest with
            | (next : Span.record) :: _ ->
              l.retry <- l.retry + seg "retry" a.Span.finish_ns next.Span.start_ns
            | [] -> l.finish <- l.finish + seg "finish" a.Span.finish_ns root.Span.finish_ns);
            per_attempt rest
        in
        per_attempt attempts;
        let total = root.Span.finish_ns - d.Client.start_ns in
        l.total <- l.total + total;
        (* disjoint segments cannot cover more than the whole *)
        if List.fold_left ( + ) 0 !segs > total then problem "segments exceed the request's latency"
      | _ -> problem "span chain incomplete (root, wait, attempts = retries + 1)")
    done_;
  l

let frac l x = if l.total > 0 then float_of_int x /. float_of_int l.total else 0.0

let unattributed_frac l =
  1.0
  -. frac l
       (l.late + l.wait + l.dispatch + l.pool_queue + l.pack + l.kernel + l.retry + l.finish)

(* ---- direct replay ---- *)

(* index into Catalog.kernel_families *)
let family = function
  | Task.Potrf _ -> 0
  | Task.Trsm _ -> 1
  | Task.Syrk _ -> 2
  | Task.Gemm _ -> 3
  | Task.Getrf _ -> 4
  | Task.Trsm_l _ -> 5
  | Task.Trsm_u _ -> 6

let n_families = List.length Catalog.kernel_families

type replay = {
  plan_us : Fbuf.t;
  pack_us : Fbuf.t;
  finish_us : Fbuf.t;
  makespan_ms : Fbuf.t;
  chunk_max_ms : Fbuf.t;  (** per sparse solve: its longest chunk task *)
  solve_ms : Fbuf.t;  (** per sparse solve: its chain's summed task time *)
  calls : int Atomic.t array;
  op_ns : int Atomic.t array;
  flops : float array;
  mutable busy_ns : int;
  mutable lane_ns : int;  (** makespan x lanes *)
  mutable spmv_bytes : float;
  mutable sparse_ns : int;
  mutable plans : int;
  mutable wrong : int;
}

(* SpMVs a CG instance performs: its iteration count is deterministic, so
   one sequential solve tells it. *)
let spmv_bytes_of = function
  | Request.Cg_solve { a; b; tol; max_iter } ->
    let r = Xsc_sparse.Cg.solve ~max_iter ~tol a b in
    float_of_int r.Xsc_sparse.Cg.spmv_count *. Xsc_sparse.Csr.spmv_bytes a
  | _ -> 0.0

let replay ~lanes ~(jobs : Workload.instance list) =
  let r =
    {
      plan_us = Fbuf.create ();
      pack_us = Fbuf.create ();
      finish_us = Fbuf.create ();
      makespan_ms = Fbuf.create ();
      chunk_max_ms = Fbuf.create ();
      solve_ms = Fbuf.create ();
      calls = Array.init n_families (fun _ -> Atomic.make 0);
      op_ns = Array.init n_families (fun _ -> Atomic.make 0);
      flops = Array.make n_families 0.0;
      busy_ns = 0;
      lane_ns = 0;
      spmv_bytes = 0.0;
      sparse_ns = 0;
      plans = 0;
      wrong = 0;
    }
  in
  let pool = Pool.create ~workers:lanes () in
  let spmv_cache = ref [] in
  List.iteri
    (fun key (inst : Workload.instance) ->
      let t0 = Clock.now_ns () in
      let plan = Route.plan ~key inst.Workload.payload in
      Fbuf.add r.plan_us (float_of_int (Clock.now_ns () - t0) /. 1e3);
      let closure_ns = Atomic.make 0 and pack_ns = Atomic.make 0 and chunk_max = Atomic.make 0 in
      let timed (t : Task.t) =
        match t.Task.run with
        | None ->
          Option.iter (fun op -> r.flops.(family op) <- r.flops.(family op) +. t.Task.flops) t.Task.op;
          t
        | Some f ->
          let run () =
            let s = Clock.now_ns () in
            f ();
            let d = Clock.now_ns () - s in
            if t.Task.name = "pack" then Atomic.set pack_ns d
            else begin
              ignore (Atomic.fetch_and_add closure_ns d);
              (* chain tasks run one after another, never concurrently *)
              if d > Atomic.get chunk_max then Atomic.set chunk_max d
            end
          in
          Task.make ~id:t.Task.id ~name:t.Task.name ~flops:t.Task.flops ~bytes:t.Task.bytes ~run
            t.Task.accesses
      in
      let dag = Dag.build (Array.to_list (Array.map timed plan.Route.dag.Dag.tasks)) in
      let ops_ns = Atomic.make 0 in
      let interp =
        Option.map
          (fun f op ->
            let s = Clock.now_ns () in
            f op;
            let d = Clock.now_ns () - s in
            let k = family op in
            Atomic.incr r.calls.(k);
            ignore (Atomic.fetch_and_add r.op_ns.(k) d);
            ignore (Atomic.fetch_and_add ops_ns d))
          plan.Route.interp
      in
      let s = Clock.now_ns () in
      ignore (Pool.run ?interp pool dag);
      let makespan = Clock.now_ns () - s in
      Fbuf.add r.makespan_ms (float_of_int makespan /. 1e6);
      let s = Clock.now_ns () in
      let sol = plan.Route.finish () in
      Fbuf.add r.finish_us (float_of_int (Clock.now_ns () - s) /. 1e3);
      if not (Loadgen.solutions_bitwise_equal sol inst.Workload.oracle) then r.wrong <- r.wrong + 1;
      if plan.Route.tiled then Fbuf.add r.pack_us (float_of_int (Atomic.get pack_ns) /. 1e3);
      (match inst.Workload.payload with
      | Request.Cg_solve _ as p ->
        let bytes =
          match List.assq_opt p !spmv_cache with
          | Some b -> b
          | None ->
            let b = spmv_bytes_of p in
            spmv_cache := (p, b) :: !spmv_cache;
            b
        in
        r.spmv_bytes <- r.spmv_bytes +. bytes;
        r.sparse_ns <- r.sparse_ns + Atomic.get closure_ns;
        Fbuf.add r.solve_ms (float_of_int (Atomic.get closure_ns) /. 1e6);
        Fbuf.add r.chunk_max_ms (float_of_int (Atomic.get chunk_max) /. 1e6)
      | _ -> ());
      r.busy_ns <- r.busy_ns + Atomic.get ops_ns + Atomic.get closure_ns + Atomic.get pack_ns;
      r.lane_ns <- r.lane_ns + (makespan * lanes);
      r.plans <- r.plans + 1)
    jobs;
  Pool.shutdown pool;
  r
