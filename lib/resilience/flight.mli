(** Crash flight recorder: a bounded, always-on ring of the most recent
    span records, dumped to a CRC-headed file when something goes wrong.

    The recorder keeps the {e last} N entries (overwrite-oldest) — the
    opposite bias from the span collector, because a post-mortem wants
    what happened just before the failure, not the start of the run. Entries arrive either directly via {!record} or by
    teeing a span collector through {!note_span}
    ([Span.collector ~tee:Flight.note_span ()]).

    Dumps reuse {!Checkpoint}'s header discipline (atomic tmp+rename,
    magic/version/length/CRC-32) under the flight recorder's own magic,
    so a torn or corrupt dump is rejected with the same typed
    {!Checkpoint.load_error}s and a checkpoint file read as a flight dump
    fails [Bad_magic] rather than confusing [Marshal]. *)

type entry = {
  t_ns : int;  (** monotonic start timestamp of the segment *)
  domain : int;  (** recording domain id *)
  request : int;
  span : int;
  parent : int;
  attempt : int;
  phase : string;
  name : string;
  dur_ns : int;
}

type dump = {
  reason : string;
  wall_unix : float;  (** [Unix.gettimeofday] at dump time *)
  recorded : int;  (** entries ever offered, including those overwritten *)
  entries : entry array;  (** survivors, oldest first *)
}

val configure : capacity:int -> unit
(** Resize the ring (total across shards; default 4096) and clear it.
    Raises [Invalid_argument] if [capacity <= 0]. *)

val record : entry -> unit
(** Append to the calling domain's shard; overwrites the oldest entry
    when full. Counted on [flight.records]. *)

val note_span : Xsc_obs.Span.record -> unit
(** {!record} adapted to span records — the [tee] hook for
    {!Xsc_obs.Span.collector}. *)

val snapshot : unit -> entry array * int
(** Surviving entries sorted by timestamp, plus the total ever offered. *)

val clear : unit -> unit

val dump : path:string -> reason:string -> (int * int)
(** Write the current ring as a CRC-headed dump file; returns
    [(bytes_written, entries_dumped)]. Counted on [flight.dumps]. *)

val read : string -> (dump, Checkpoint.load_error) result
(** Parse and CRC-verify a dump file. *)

val dump_once : path:string -> reason:string -> (int * int) option
(** {!dump}, but at most once per [path] per process run — a
    permanent-fault storm triggers one post-mortem, not an IO storm.
    Returns [None] when this path was already dumped. *)

val reset_dump_guard : unit -> unit
(** Forget which paths {!dump_once} has written (for tests and repeated
    bench phases in one process). *)

val pp_dump : Format.formatter -> dump -> unit
(** Human-readable rendering: dump header, then per-request span chains
    in time order, indented by causal depth — what [xsc flight --read]
    prints. *)
