(** GC/allocation telemetry: [Gc.quick_stat] snapshots, phase deltas into
    {!Metrics} gauges, and an allocation-free per-domain minor-words
    reader for hot-path allocation estimates (the "zero-allocation steady
    state" goal made measurable). *)

type snap = {
  minor_words : float;  (** cumulative words allocated in the minor heap *)
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;  (** current major-heap size (not cumulative) *)
}

val snap : unit -> snap
(** [Gc.quick_stat] — exact for the calling domain, includes other
    domains' contributions as of their last slice boundary. *)

val delta : before:snap -> after:snap -> snap
(** Field-wise [after - before] for the cumulative fields; [heap_words]
    (a level, not a flow) is taken from [after]. *)

val minor_words : unit -> float
(** Words allocated in the minor heap by the {e calling domain} since
    program start ([Gc.minor_words]). Allocation-free: safe to call on
    the serve hot path without perturbing the quantity it measures. *)

val sample : unit -> unit
(** Publish the cumulative process totals as gauges [gc.minor_words],
    [gc.promoted_words], [gc.major_words], [gc.minor_collections],
    [gc.major_collections] and [gc.heap_words]. *)

val phase : string -> (unit -> 'a) -> 'a
(** [phase name f] runs [f] and publishes the allocation delta it caused
    under gauges [gc.<name>.*] (set even if [f] raises). *)
