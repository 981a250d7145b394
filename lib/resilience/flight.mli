(** Crash flight recorder: the CRC-headed dump file of a post-mortem's
    span records.

    The recorder holds no records of its own. A server's
    {!Xsc_obs.Span.collector} is an overwrite-oldest ring, so its newest
    records are what happened just before a failure; the server passes
    them here ({!dump}, {!dump_once}) when a request fails permanently,
    an SLO enters breach, or it stops after failures. Bench runners dump
    whatever records they hold the same way.

    Dumps reuse {!Checkpoint}'s header discipline (atomic tmp+rename,
    magic/version/length/CRC-32) under the flight recorder's own magic,
    so a torn or corrupt dump is rejected with the same typed
    {!Checkpoint.load_error}s, and a checkpoint file — or a dump of an
    older flight format — read as a flight dump fails [Bad_magic] rather
    than confusing [Marshal]. *)

type dump = {
  reason : string;
  wall_unix : float;  (** [Unix.gettimeofday] at dump time *)
  records : Xsc_obs.Span.record list;  (** oldest first *)
}

val dump : path:string -> reason:string -> Xsc_obs.Span.record list -> int
(** Write [records] as a CRC-headed dump file; returns the bytes written.
    Counted on [flight.dumps]. *)

val read : string -> (dump, Checkpoint.load_error) result
(** Parse and CRC-verify a dump file. *)

val dump_once :
  path:string -> reason:string -> (unit -> Xsc_obs.Span.record list) -> int option
(** {!dump}, but at most once per [path] per process run — a
    permanent-fault storm triggers one post-mortem, not an IO storm. The
    records are gathered only when the dump is written. Returns [None]
    when this path was already dumped. *)

val reset_dump_guard : unit -> unit
(** Forget which paths {!dump_once} has written (for tests and repeated
    bench phases in one process). *)

val pp_dump : Format.formatter -> dump -> unit
(** Human-readable rendering: dump header, then per-request span chains
    in time order, indented by causal depth — what [xsc flight --read]
    prints. *)
