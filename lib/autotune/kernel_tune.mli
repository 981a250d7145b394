(** Install-time autotuning of the packed C microkernels.

    Searches the {!Xsc_linalg.Pblas} kernel-variant space (micro-tile
    shape x pack strategy x prefetch, per kernel per precision, plus the
    tile size [nb]) with {!Search.successive_halving} over median-of-
    repeats monotonic timings ({!Tuner.time_thunk}), then confirms the
    winner against the fixed default in a higher-repeat head-to-head —
    so a tuned config is never slower than the default it replaces on
    the host that tuned it.

    Every candidate computes bitwise-identical results (the variants
    only change which independent accumulator chains run concurrently),
    so the search is purely over speed; correctness never enters the
    objective.

    The result persists through {!Xsc_linalg.Kconfig} and is picked up
    by every later process on the same host: tune once per machine
    ([xsc tune]), benefit everywhere (paper rule 7). *)

val tune :
  ?quick:bool -> ?nbs:int list -> ?seed:int -> unit -> Xsc_linalg.Kconfig.t * int
(** Run the search on this host; returns the winners as a cache record
    (keyed by {!Xsc_linalg.Kconfig.host_key}, ready for
    {!Xsc_linalg.Kconfig.save}) and the number of timed candidate
    evaluations. [quick] shrinks the candidate set to a CI-sized smoke
    (3 shapes, single [nb]); default [nbs] is [[48; 64; 96]] (full) or
    [[64]] (quick). The kernel configs left installed afterwards are the
    tuned winners. *)

val ensure :
  ?quick:bool -> ?path:string -> unit ->
  [ `Loaded of Xsc_linalg.Kconfig.t | `Tuned of Xsc_linalg.Kconfig.t * int ]
(** Load the cache at [path] (default {!Xsc_linalg.Kconfig.default_path})
    and apply it; on any load error (absent, corrupt, tuned for another
    host) run {!tune}, save the fresh cache, and apply that ([`Tuned]
    carries {!tune}'s evaluation count). A second call on the same host
    returns [`Loaded] without re-searching. *)

val measure_pair :
  ?seed:int -> ?rounds:int -> nb:int ->
  Xsc_linalg.Pblas.prec -> Xsc_linalg.Pblas.kernel ->
  Xsc_linalg.Pblas.kcfg -> Xsc_linalg.Pblas.kcfg ->
  float * float
(** [measure_pair ~nb prec kernel a b]: GFLOP/s of configs [a] and [b] on
    seeded random tiles, sampled interleaved ([rounds] a/b pairs, default
    15, median per side, each sample a calibrated batch of calls) so host
    load and clock drift cancel out of the comparison. Restores the
    previously installed config. Used by the head-to-head election and by
    the benchmark gate to re-judge a loaded cache against the defaults. *)

val entry_fields : Xsc_linalg.Kconfig.entry -> (string * Xsc_util.Json.t) list
(** One tuned kernel as JSON object fields: [prec], [kernel], the
    micro-tile [mr]/[nr], [pack], [prefetch], [default_gflops],
    [tuned_gflops] and their ratio [speedup] — the [kernels] rows of the
    [xsc tune --json] and bench autotune records. *)
