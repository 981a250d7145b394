(** Bounded multi-producer multi-consumer queue.

    The service's ingestion buffer: admission control is a [try_push] that
    answers {!Full} instead of blocking or growing, so offered load beyond
    capacity turns into typed rejections (backpressure), never unbounded
    memory. FIFO: elements pop in push order. The capacity bound holds
    under any interleaving of producers and consumers — admission is
    decided in the same critical section as the slot write. *)

type 'a t

type push_result =
  | Accepted
  | Full  (** at capacity — the caller should reject or shed load *)
  | Closed  (** queue closed ({!close}); no further pushes accepted *)

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] if [capacity <= 0]. *)

val try_push : 'a t -> 'a -> push_result
(** Never blocks and never grows the queue past [capacity]. *)

val try_pop : 'a t -> 'a option
(** Oldest element, or [None] when empty (closed queues still drain). *)

val length : 'a t -> int
(** Momentary; at most [capacity]. *)

val capacity : 'a t -> int

val close : 'a t -> unit
(** Subsequent pushes answer {!Closed}; pending elements still pop. *)
