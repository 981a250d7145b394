(* Crash flight recorder: the file format for a post-mortem of span
   records. The records themselves live in the server's span collector —
   an overwrite-oldest ring, so its newest records are exactly what a
   post-mortem wants: what happened just before the failure. A dump is
   CRC-headed (Checkpoint's header discipline under the recorder's own
   magic) and written when something goes wrong — a permanent request
   failure, an SLO breach, a bench gate tripping. *)

module Metrics = Xsc_obs.Metrics
module Span = Xsc_obs.Span

type dump = {
  reason : string;
  wall_unix : float;
  records : Span.record list;  (* oldest first *)
}

(* The second format: the payload became a list of span records. A dump
   of the first format ("XSCFLTR", an entry array) fails [Bad_magic]
   rather than being unmarshalled into the wrong type. *)
let magic = "XSCFLT2"

let m_dumps = Metrics.counter "flight.dumps"

let dump ~path ~reason records =
  let bytes =
    Checkpoint.save_value_with ~magic path { reason; wall_unix = Unix.gettimeofday (); records }
  in
  Metrics.incr m_dumps;
  bytes

let read path : (dump, Checkpoint.load_error) result = Checkpoint.load_value_with ~magic path

(* A permanent-fault storm can fail dozens of requests in a burst, and
   re-marshalling the records for each would turn a diagnostic into an IO
   storm. Callers use [dump_once] keyed by path: first failure wins, the
   final state can still be captured explicitly at shutdown. *)
let dumped : (string, unit) Hashtbl.t = Hashtbl.create 4
let dumped_mu = Mutex.create ()

let dump_once ~path ~reason records =
  Mutex.lock dumped_mu;
  let fresh = not (Hashtbl.mem dumped path) in
  if fresh then Hashtbl.add dumped path ();
  Mutex.unlock dumped_mu;
  if fresh then Some (dump ~path ~reason (records ())) else None

let reset_dump_guard () =
  Mutex.lock dumped_mu;
  Hashtbl.reset dumped;
  Mutex.unlock dumped_mu

(* ---- human-readable rendering for `xsc flight --read` ---- *)

let pp_dump fmt (d : dump) =
  Format.fprintf fmt "flight dump: reason=%S records=%d wall=%.3f@." d.reason
    (List.length d.records) d.wall_unix;
  (* group by request, chains in time order, indent by parent depth *)
  let by_req : (int, Span.record list) Hashtbl.t = Hashtbl.create 16 in
  let parent_of = Hashtbl.create 64 in
  List.iter
    (fun (r : Span.record) ->
      Hashtbl.replace by_req r.request
        (r :: Option.value ~default:[] (Hashtbl.find_opt by_req r.request));
      Hashtbl.replace parent_of r.span r.parent)
    d.records;
  let reqs = Hashtbl.fold (fun r _ acc -> r :: acc) by_req [] |> List.sort compare in
  let depth_cache = Hashtbl.create 64 in
  let rec depth span =
    if span < 0 then 0
    else
      match Hashtbl.find_opt depth_cache span with
      | Some d -> d
      | None ->
        let d =
          match Hashtbl.find_opt parent_of span with
          | Some p when p <> span -> 1 + depth p
          | _ -> 0
        in
        Hashtbl.replace depth_cache span d;
        d
  in
  List.iter
    (fun req ->
      Format.fprintf fmt "request %d:@." req;
      List.iter
        (fun (r : Span.record) ->
          Format.fprintf fmt "  %s%-8s %-24s span=%d parent=%d attempt=%d lane=%d t=%dns dur=%dns@."
            (String.make (2 * max 0 (depth r.span - 1)) ' ')
            r.phase r.name r.span r.parent r.attempt r.lane r.start_ns
            (max 0 (r.finish_ns - r.start_ns)))
        (List.sort
           (fun (a : Span.record) (b : Span.record) ->
             compare (a.start_ns, a.span) (b.start_ns, b.span))
           (Hashtbl.find by_req req)))
    reqs
