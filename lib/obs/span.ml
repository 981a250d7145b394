(* Causal spans: every record carries (request, span, parent) so a
   request's journey through admission, batching, dispatch, kernel tasks
   and retries can be reassembled as a tree no matter which domain each
   segment ran on. Span ids come from one process-wide atomic counter;
   the ambient context travels in domain-local storage and is re-seated
   explicitly when an executor hands work to freshly spawned domains.
   Each context names the collector its request records into, so two
   servers in one process never mix their spans. *)

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

(* Fixed-capacity overwrite-oldest ring, lock-free. A writer takes a
   ticket from one atomic counter and publishes an immutable (ticket,
   record) entry into slot [ticket land mask]; a slot only ever moves to a
   larger ticket, so a writer that was lapped while it held its ticket
   gives way instead of burying a newer record. A reader walks the last
   [capacity] tickets and keeps an entry only if it carries exactly the
   ticket it looked for: a slot not yet stored (still the previous lap)
   or already overwritten (the next lap) is skipped, so a record is never
   returned twice and never half-written. *)
type entry = { ticket : int; r : record }

type collector = { slots : entry Atomic.t array; mask : int; next : int Atomic.t }

type ctx = { request : int; span : int; parent : int; sink : collector option }

let next_id = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add next_id 1
let root ~sink ~request = { request; span = fresh_id (); parent = -1; sink }
let child c = { c with span = fresh_id (); parent = c.span }

(* ambient context, per domain *)
let dls_key : ctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let current () = Domain.DLS.get dls_key
let set_current c = Domain.DLS.set dls_key c

let with_current c f =
  let saved = current () in
  set_current c;
  Fun.protect ~finally:(fun () -> set_current saved) f

(* Registered at module init, not lazily: two domains forcing one lazy
   value at once make one of them raise [CamlinternalLazy.Undefined]. *)
let m_dropped = Metrics.counter "obs.span.dropped"

let collector ?(capacity = 1 lsl 16) () =
  if capacity <= 0 then invalid_arg "Span.collector: capacity must be positive";
  let rec pow2 n = if n >= capacity then n else pow2 (2 * n) in
  let cap = pow2 1 in
  let empty =
    { ticket = -1;
      r = { request = -1; span = -1; parent = -1; phase = ""; name = ""; lane = -1;
            attempt = 0; start_ns = 0; finish_ns = 0 } }
  in
  { slots = Array.init cap (fun _ -> Atomic.make empty); mask = cap - 1; next = Atomic.make 0 }

let capacity col = col.mask + 1

let record col r =
  let ticket = Atomic.fetch_and_add col.next 1 in
  if ticket > col.mask then Metrics.incr m_dropped;
  let slot = col.slots.(ticket land col.mask) and e = { ticket; r } in
  let rec publish () =
    let cur = Atomic.get slot in
    if cur.ticket < ticket && not (Atomic.compare_and_set slot cur e) then publish ()
  in
  publish ()

let records ?last col =
  let hi = Atomic.get col.next in
  let keep = match last with Some n -> min n (capacity col) | None -> capacity col in
  let acc = ref [] in
  for ticket = hi - 1 downto max 0 (hi - keep) do
    let e = Atomic.get col.slots.(ticket land col.mask) in
    if e.ticket = ticket then acc := e.r :: !acc
  done;
  !acc

let dropped col = max 0 (Atomic.get col.next - capacity col)

(* Record a child segment of the ambient context into that context's own
   collector. The common disabled case costs one DLS read. *)
let note ~phase ~name ~lane ~attempt ~start_ns ~finish_ns =
  match current () with
  | Some ({ sink = Some col; _ } as ctx) ->
    record col
      { request = ctx.request; span = fresh_id (); parent = ctx.span; phase; name; lane;
        attempt; start_ns; finish_ns }
  | _ -> ()

let active () = match current () with Some { sink = Some _; _ } -> true | _ -> false

(* ---- Chrome/Perfetto export ----
   One lane per request: pid 1 (the executor trace uses pid 0), tid =
   request id, so a request's whole lifeline — wait, attempts, tasks,
   replays — renders contiguously. Parenting is made explicit with flow
   events: an "s" anchored at the parent's start and an "f" (bp:"e") at
   the child's start, with id = the child's span id. *)

let chrome_events ~origin_ns records =
  let module J = Xsc_util.Json in
  let by_span = Hashtbl.create 256 in
  List.iter (fun (r : record) -> Hashtbl.replace by_span r.span r) records;
  let us t_ns = J.Num (float_of_int (t_ns - origin_ns) /. 1e3) in
  let events = ref [] in
  let emit kv = events := J.Obj kv :: !events in
  let flow ph bp ~id ~ts ~tid =
    emit
      ([ ("name", J.Str "causal"); ("cat", J.Str "span"); ("ph", J.Str ph) ]
      @ bp
      @ [ ("id", J.int id); ("ts", ts); ("pid", J.int 1); ("tid", J.int tid) ])
  in
  List.iter
    (fun (r : record) ->
      emit
        [
          ("name", J.Str r.name);
          ("cat", J.Str r.phase);
          ("ph", J.Str "X");
          ("ts", us r.start_ns);
          ("dur", J.Num (float_of_int (max 0 (r.finish_ns - r.start_ns)) /. 1e3));
          ("pid", J.int 1);
          ("tid", J.int r.request);
          ( "args",
            J.Obj
              [
                ("span", J.int r.span);
                ("parent", J.int r.parent);
                ("lane", J.int r.lane);
                ("attempt", J.int r.attempt);
              ] );
        ];
      if r.parent >= 0 then
        match Hashtbl.find_opt by_span r.parent with
        | None -> ()
        | Some p ->
          flow "s" [] ~id:r.span ~ts:(us p.start_ns) ~tid:p.request;
          flow "f" [ ("bp", J.Str "e") ] ~id:r.span ~ts:(us r.start_ns) ~tid:r.request)
    records;
  List.rev !events

let to_chrome_json ~origin_ns records =
  Xsc_util.Json.to_string (Xsc_util.Json.List (chrome_events ~origin_ns records)) ^ "\n"
