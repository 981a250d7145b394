(** Causal spans: request-scoped segments that reassemble into a tree.

    A {!ctx} names a position in a request's causal history — the request
    id plus this segment's span id and its parent's. The server mints a
    root context at admission and derives children for every wait,
    dispatch attempt, executor task, injected fault and ABFT replay, so
    one request's full lifeline renders as a single lane in the exported
    Chrome trace even when its segments ran on different domains,
    batches, or retry attempts.

    Context travels two ways: explicitly inside {!record} values, and
    ambiently in domain-local storage ({!set_current}/{!current}) so
    layers below the server (executors, the fault harness, ABFT replay)
    can parent their segments onto whatever request is running without
    any API changes — they call {!note}, which is a no-op unless an
    ambient context is set and names a collector.

    The context carries its request's {!collector} ([sink]), so there is
    no process-wide sink: two servers in one process each record their
    own requests' segments, executor tasks included. The collector is the
    one store of span records — Chrome export, the server's worker-lane
    trace and the crash flight recorder all read from it. *)

type collector
(** A fixed-capacity, lock-free ring of span records. Writers on any
    domain take a ticket from one atomic counter and overwrite the oldest
    record once the ring is full, so a long-running server keeps tracing:
    the ring always holds the most recent [capacity] records. *)

type ctx = { request : int; span : int; parent : int; sink : collector option }
(** [sink] is the collector every segment of this request records into
    ([None]: spans off). Children inherit it. *)

(* Declared after [ctx], so an unannotated [x.Span.request] is a record's. *)
type record = {
  request : int;
  span : int;
  parent : int;
  phase : string;  (** segment kind: ["request"], ["wait"], ["attempt"], ["task"], ["inject"], ["replay"] *)
  name : string;
  lane : int;  (** worker lane, or [-1] when no worker applies *)
  attempt : int;
  start_ns : int;
  finish_ns : int;
}

val fresh_id : unit -> int
(** Process-unique, strictly increasing span id. *)

val root : sink:collector option -> request:int -> ctx
(** New root context ([parent = -1]) for a request, recording into [sink]. *)

val child : ctx -> ctx
(** New context one level below [ctx] (same request and sink, fresh span
    id, [parent = ctx.span]). *)

val current : unit -> ctx option
(** Ambient context of the calling domain. *)

val set_current : ctx option -> unit

val with_current : ctx option -> (unit -> 'a) -> 'a
(** Run with the ambient context replaced, restoring the previous one on
    return or raise. *)

val collector : ?capacity:int -> unit -> collector
(** [capacity] defaults to 65536 records and is rounded up to a power of
    two. Raises [Invalid_argument] if [capacity <= 0]. *)

val record : collector -> record -> unit
(** Append, overwriting the oldest record when the ring is full. Never
    blocks. *)

val records : ?last:int -> collector -> record list
(** The surviving records (the newest [last], default all), oldest
    first in ticket order. A slot whose writer has taken its ticket but not
    yet stored is skipped; no record is returned torn or twice. *)

val dropped : collector -> int
(** Records overwritten so far (also counted on the [obs.span.dropped]
    metric). Once writers are quiescent,
    [List.length (records c) + dropped c] is the number of records offered. *)

val note :
  phase:string ->
  name:string ->
  lane:int ->
  attempt:int ->
  start_ns:int ->
  finish_ns:int ->
  unit
(** Record a child segment of the ambient context into that context's
    sink. No-op (one DLS read) when there is no ambient context or it has
    no sink — the executors call this per task, so the disabled path must
    stay branch-cheap. *)

val active : unit -> bool
(** True when the calling domain's ambient context has a sink — i.e.
    {!note} would actually record. Lets hot paths skip timestamp reads
    when spans are off. *)

val chrome_events : origin_ns:int -> record list -> Xsc_util.Json.t list
(** Chrome trace-event objects: one ["X"] complete event per
    record on pid 1 / tid = request id, plus an ["s"]/["f"] flow-event
    pair (id = child span id) for every record whose parent is present,
    anchoring the arrow at the parent's start. Timestamps are relative to
    [origin_ns], in microseconds. *)

val to_chrome_json : origin_ns:int -> record list -> string
(** [chrome_events] as one JSON array, printed by
    [Xsc_util.Json.to_string]. *)
