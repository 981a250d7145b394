(** Earliest-deadline-first batch scheduler.

    A binary min-heap of flushed batches keyed by
    [(deadline_ns, formation seq)]: {!pop} always yields the most urgent
    ready batch, and equal deadlines dispatch FIFO in formation order —
    the classical EDF discipline, optimal for meeting deadlines on a
    single resource when the offered load is feasible.

    Polymorphic in the batched request type: the heap only reads the
    batch's EDF key, so the live {!Server} and the fleet simulator share
    one implementation.

    Not thread-safe: the owning {!Server} uses it under its state lock. *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> 'a Batcher.batch -> unit

val pop : 'a t -> 'a Batcher.batch option
(** Earliest deadline, ties in formation order. *)

val pop_when : ('a Batcher.batch -> bool) -> 'a t -> 'a Batcher.batch option
(** EDF restricted to eligible batches: the most urgent batch satisfying
    the predicate, leaving ineligible ones queued (their EDF order
    preserved). The class-aware dispatch path uses this to hold back
    concurrency-capped bandwidth-bound classes without starving them of
    their place in line. *)

val length : 'a t -> int
