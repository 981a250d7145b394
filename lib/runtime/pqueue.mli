(** Priority injection queue for the shared task pool: a thread-safe
    min-heap of (composite {!Prio.t} key, task handle) pairs.

    Submitted jobs inject their source tasks here; idle workers drain it
    before stealing, and busy workers yield to it between tasks when its
    head carries a strictly earlier deadline than their local work — the
    mechanism that bounds a small request's wait by one task granularity
    rather than one whole factorization. *)

type t

val create : unit -> t

val push : t -> Prio.t -> int -> unit

val pop : t -> (Prio.t * int) option
(** Most urgent entry ({!Prio.compare} order), or [None] when empty. *)

val pop_if_deadline_before : t -> int -> (Prio.t * int) option
(** [pop_if_deadline_before q d] pops the head only when its deadline is
    strictly earlier than [d]. The fast path is a single atomic load of
    the cached head deadline, so calling this once per executed task is
    nearly free when no more urgent work exists. *)

val length : t -> int

val min_deadline : t -> int
(** Cached head deadline ([max_int] when empty). Conservative under
    concurrent mutation: may be momentarily stale, never locks. Kept as
    the test oracle for the cache that the lock-free deadline check
    reads. *)

val is_empty : t -> bool
(** One atomic load; momentarily stale under concurrent mutation (both
    cache updates happen inside the queue lock, so a worker that takes
    the lock afterwards sees the truth). *)
