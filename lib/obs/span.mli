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
    any API changes — they call {!note}, which is a no-op unless a
    collector is {!install}ed *and* an ambient context is set. *)

type ctx = { request : int; span : int; parent : int }

val fresh_id : unit -> int
(** Process-unique, strictly increasing span id. *)

val root : request:int -> ctx
(** New root context ([parent = -1]) for a request. *)

val child : ctx -> ctx
(** New context one level below [ctx] (same request, fresh span id,
    [parent = ctx.span]). *)

val current : unit -> ctx option
(** Ambient context of the calling domain. *)

val set_current : ctx option -> unit

val with_current : ctx option -> (unit -> 'a) -> 'a
(** Run with the ambient context replaced, restoring the previous one on
    return or raise. *)

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

type collector
(** Bounded thread-safe sink of span records (drop-newest when full, so
    parents survive for whatever children land). *)

val collector : ?capacity:int -> ?tee:(record -> unit) -> unit -> collector
(** [capacity] defaults to 65536 records. [tee] is invoked synchronously
    for every record {i before} the capacity check — the flight recorder
    hooks in here so its ring sees even records the collector sheds.
    Raises [Invalid_argument] if [capacity <= 0]. *)

val record : collector -> record -> unit

val records : collector -> record list
(** In record order. *)

val dropped : collector -> int
(** Records shed because the collector was full (also counted on the
    [obs.span.dropped] metric). *)

val install : collector option -> unit
(** Set (or clear) the process-wide collector used by {!note}. *)

val installed : unit -> collector option

val note :
  phase:string ->
  name:string ->
  lane:int ->
  attempt:int ->
  start_ns:int ->
  finish_ns:int ->
  unit
(** Record a child segment of the ambient context into the installed
    collector. No-op (one atomic read + one DLS read) when either is
    absent — the executors call this per task, so the disabled path must
    stay branch-cheap. *)

val active : unit -> bool
(** True when both a collector is installed and the calling domain has an
    ambient context — i.e. {!note} would actually record. Lets hot paths
    skip timestamp reads when spans are off. *)

val chrome_events : origin_ns:int -> record list -> string list
(** Chrome trace-event objects (strings): one ["X"] complete event per
    record on pid 1 / tid = request id, plus an ["s"]/["f"] flow-event
    pair (id = child span id) for every record whose parent is present,
    anchoring the arrow at the parent's start. Timestamps are relative to
    [origin_ns], in microseconds. *)

val to_chrome_json : origin_ns:int -> record list -> string
(** [chrome_events] wrapped in a JSON array; parses with
    [Xsc_util.Json.parse]. *)
