(* Causal spans: every record carries (request, span, parent) so a
   request's journey through admission, batching, dispatch, kernel tasks
   and retries can be reassembled as a tree no matter which domain each
   segment ran on. Span ids come from one process-wide atomic counter;
   the ambient context travels in domain-local storage and is re-seated
   explicitly when an executor hands work to freshly spawned domains. *)

type ctx = { request : int; span : int; parent : int }

let next_id = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add next_id 1
let root ~request = { request; span = fresh_id (); parent = -1 }
let child c = { request = c.request; span = fresh_id (); parent = c.span }

(* ambient context, per domain *)
let dls_key : ctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let current () = Domain.DLS.get dls_key
let set_current c = Domain.DLS.set dls_key c

let with_current c f =
  let saved = current () in
  set_current c;
  Fun.protect ~finally:(fun () -> set_current saved) f

type record = {
  request : int;
  span : int;
  parent : int;
  phase : string;
  name : string;
  lane : int;
  attempt : int;
  start_ns : int;
  finish_ns : int;
}

(* Bounded multi-writer collector under a mutex: span recording happens
   once per request *segment* (admission, attempt, task), not per
   scheduler event, so the lock is off any per-element hot loop.
   Drop-newest — early records keep parents present for whatever children
   do land. *)
type collector = {
  mu : Mutex.t;
  mutable items : record list; (* newest first *)
  mutable count : int;
  capacity : int;
  mutable lost : int;
  tee : (record -> unit) option;
}

(* Registered at module init, not lazily: two domains forcing one lazy
   value at once make one of them raise [CamlinternalLazy.Undefined]. *)
let m_dropped = Metrics.counter "obs.span.dropped"

let collector ?(capacity = 1 lsl 16) ?tee () =
  if capacity <= 0 then invalid_arg "Span.collector: capacity must be positive";
  { mu = Mutex.create (); items = []; count = 0; capacity; lost = 0; tee }

let record col (r : record) =
  (match col.tee with Some f -> f r | None -> ());
  Mutex.lock col.mu;
  if col.count >= col.capacity then begin
    col.lost <- col.lost + 1;
    Mutex.unlock col.mu;
    Metrics.incr m_dropped
  end
  else begin
    col.items <- r :: col.items;
    col.count <- col.count + 1;
    Mutex.unlock col.mu
  end

let records col =
  Mutex.lock col.mu;
  let items = col.items in
  Mutex.unlock col.mu;
  List.rev items

let dropped col =
  Mutex.lock col.mu;
  let n = col.lost in
  Mutex.unlock col.mu;
  n

(* Process-wide installed collector: executors and the fault harness sit
   below the server in the dependency order, so they reach the collector
   through this cell rather than a parameter threaded down every call. *)
let installed_cell : collector option Atomic.t = Atomic.make None
let install c = Atomic.set installed_cell c
let installed () = Atomic.get installed_cell

(* Record a child segment of the ambient context into the installed
   collector, if both exist. The common disabled case costs one atomic
   read and one DLS read. *)
let note ~phase ~name ~lane ~attempt ~start_ns ~finish_ns =
  match installed () with
  | None -> ()
  | Some col -> (
    match current () with
    | None -> ()
    | Some ctx ->
      let c = child ctx in
      record col
        {
          request = c.request;
          span = c.span;
          parent = c.parent;
          phase;
          name;
          lane;
          attempt;
          start_ns;
          finish_ns;
        })

let active () = (match installed () with None -> false | Some _ -> true) && current () <> None

(* ---- Chrome/Perfetto export ----
   One lane per request: pid 1 (the executor trace uses pid 0), tid =
   request id, so a request's whole lifeline — wait, attempts, tasks,
   replays — renders contiguously. Parenting is made explicit with flow
   events: an "s" anchored at the parent's start and an "f" (bp:"e") at
   the child's start, with id = the child's span id. *)

let esc = Xsc_util.Json.escape

let chrome_events ~origin_ns records =
  let by_span = Hashtbl.create 256 in
  List.iter (fun (r : record) -> Hashtbl.replace by_span r.span r) records;
  let us t_ns = float_of_int (t_ns - origin_ns) /. 1e3 in
  let buf_events = ref [] in
  let emit s = buf_events := s :: !buf_events in
  List.iter
    (fun (r : record) ->
      let dur = float_of_int (max 0 (r.finish_ns - r.start_ns)) /. 1e3 in
      emit
        (Printf.sprintf
           {|{"name": "%s", "cat": "%s", "ph": "X", "ts": %.3f, "dur": %.3f, "pid": 1, "tid": %d, "args": {"span": %d, "parent": %d, "lane": %d, "attempt": %d}}|}
           (esc r.name) (esc r.phase) (us r.start_ns) dur r.request r.span r.parent r.lane
           r.attempt);
      if r.parent >= 0 then
        match Hashtbl.find_opt by_span r.parent with
        | None -> ()
        | Some p ->
          emit
            (Printf.sprintf
               {|{"name": "causal", "cat": "span", "ph": "s", "id": %d, "ts": %.3f, "pid": 1, "tid": %d}|}
               r.span (us p.start_ns) p.request);
          emit
            (Printf.sprintf
               {|{"name": "causal", "cat": "span", "ph": "f", "bp": "e", "id": %d, "ts": %.3f, "pid": 1, "tid": %d}|}
               r.span (us r.start_ns) r.request))
    records;
  List.rev !buf_events

let to_chrome_json ~origin_ns records =
  "[" ^ String.concat ",\n " (chrome_events ~origin_ns records) ^ "]\n"
