(** Process-wide scratch pools: packed-matrix Bigarrays and float-array
    vectors recycled across same-class requests.

    One bounded freelist per size class, shared by all domains under one
    mutex: a buffer acquired on one domain and released on another goes
    back to the same list, and no freelist dies with the domain that
    filled it.

    Buffers are returned {e dirty}: callers must overwrite every element
    they read (the packing routines do — a pack writes the whole
    buffer). *)

val acquire_packed : n:int -> nb:int -> Xsc_tile.Packed.D.t
(** Pooled or fresh packed matrix of exactly ([n], [nb]); contents
    undefined. *)

val release_packed : Xsc_tile.Packed.D.t -> unit
(** Return a buffer to the pool (dropped when the class list is full).
    The caller must not touch it again. *)

val acquire_vec : int -> float array
(** Pooled or fresh [float array] of exactly the given length; contents
    undefined. *)

val release_vec : float array -> unit

val hits : unit -> int
(** Pool hits so far (also the [serve.scratch.hits] counter). *)

val misses : unit -> int
(** Pool misses = fresh allocations ([serve.scratch.misses]). *)
