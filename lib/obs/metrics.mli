(** Process-wide metrics registry: named counters, gauges and histograms
    with atomic per-domain shards.

    The registry replaces ad-hoc per-module statistics fields: a subsystem
    creates its instruments once by name ([counter]/[gauge]/[histogram] are
    find-or-create) and increments them from any domain. Counters shard
    their state by domain id so concurrent increments are exact yet mostly
    uncontended; reads sum the shards.

    Conventions: names are dot-separated ([runtime.steals],
    [blas.gemm.flops], [checkpoint.bytes_written]); counters are cumulative
    over the process lifetime, so per-run figures are before/after deltas
    (executor runs in one process are assumed not to overlap, which holds
    for the bench harness and tests). *)

type counter
type gauge
type histogram

val counter : ?shards:int -> string -> counter
(** Find or create. [shards] (default 16, rounded up to a power of two) is
    only used on first creation. Raises [Invalid_argument] if the name is
    already registered as a different instrument type. *)

val incr : counter -> unit
(** Add 1 to the calling domain's shard. *)

val add : counter -> int -> unit
(** Add [n] (>= 0 expected, not enforced) to the calling domain's shard. *)

val add_to_shard : counter -> shard:int -> int -> unit
(** Add to an explicit shard (reduced modulo the shard count) — lets a
    worker pool index shards by worker id for zero cross-worker contention
    regardless of domain-id assignment. *)

val counter_value : counter -> int
(** Sum over shards. Exact once concurrent writers have quiesced; a
    momentary under-count is possible while they run. *)

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit

val histogram : string -> histogram
(** Log2-bucketed (64 buckets spanning ~1e-12 .. 8e6): one value feeds one
    bucket plus an exact count and sum. *)

val observe : histogram -> float -> unit

val observe_n : histogram -> float -> n:int -> unit
(** [n] observations of one value in three atomic operations instead of
    [3n] — for callers that tally a batch with one representative value
    (per-request allocation shares, fleet sweep latencies). Raises
    [Invalid_argument] if [n < 0]; no-op when [n = 0]. *)

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0,1]: upper bound of the bucket containing
    the [q]-th observation (0.0 for an empty histogram).

    Bucket-resolution error: buckets are powers of two, so the true
    quantile lies in [(v/2, v]] where [v] is the reported value — the
    estimate overstates by at most 2x and never understates. That is the
    right bias for latency SLOs (a reported p999 under the budget
    guarantees the true p999 is too) at the price of up to one octave of
    pessimism; consumers needing exact tail values must keep raw samples
    (as {!Xsc_serve.Loadgen} does for its report). *)

type hist_summary = {
  count : int;
  sum : float;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
}
(** Quantiles carry the bucket-resolution error documented at
    {!quantile}. *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of hist_summary

val snapshot : unit -> (string * value) list
(** All registered instruments, sorted by name. *)

val delta : before:(string * value) list -> after:(string * value) list -> (string * value) list
(** Per-run figures from two {!snapshot}s taken around the run: counters
    and histogram count/sum subtract; gauges (levels, not flows) and
    histogram quantile estimates (cumulative buckets) are taken from
    [after]; instruments absent from [before] pass through unchanged.
    This is the one call that replaces ad-hoc before/after counter
    reads. *)

val to_json : unit -> Xsc_util.Json.t
(** The registry snapshot as [{"counters": {...}, "gauges": {...},
    "histograms": {...}}], each section keyed by instrument name.
    Histogram objects carry [count], [sum], [mean], and the
    [p50]/[p95]/[p99]/[p999] bucket-quantile estimates. *)

val reset : unit -> unit
(** Zero every instrument (registration survives). For benches and tests;
    not safe concurrently with writers. *)
