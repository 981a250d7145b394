(** The fleet simulator: serve policies under failure storms at scale.

    Runs the {e real} serve coalescing and dispatch structures — the
    polymorphic {!Xsc_serve.Batcher} and EDF {!Xsc_serve.Scheduler}, under
    the same admission rule {!Xsc_serve.Server.submit} applies — in
    discrete-event time ({!Xsc_simmachine.Des}) over a simulated
    {!Xsc_simmachine.Machine} whose nodes fail as a Poisson process
    ({!Xsc_simmachine.Failure}). Request service costs are the `lib/ca`
    closed forms priced by the alpha-beta network ({!Model}).

    A node failure that lands on an active allocation walks the recovery
    lattice, cheapest rung first: ABFT checksum repair (tile corruption,
    checksums kept), cone replay (wider corruption, or tile corruption
    without checksums), checkpoint-restart from the last Young-cadence
    checkpoint (hard rank loss), and typed reject when no rung's projected
    finish meets the member's deadline. Every injected failure is
    accounted to exactly one bucket ({!reconciles} — gate (d) of the
    fleet bench).

    Determinism: arrivals and failure times come from seeded split RNG
    streams drawn in (FIFO-stable) event order; per-failure victim and
    fault-kind decisions are pure hashes of [(seed, failure index)] in
    the {!Xsc_resilience.Harness} discipline, so a replayed storm makes
    bit-identical decisions: equal configs give float-bitwise equal
    [records] and equal [outcome_hash]. *)

(** Checkpoint cadence policy, in steps of the solve. *)
type cadence =
  | Every_step  (** maximal protection, maximal overhead *)
  | Young  (** {!Model.young_steps}: sqrt(2CM) against the allocation MTBF *)
  | Never  (** a hard failure rolls back to the start of the member *)
  | Every of int

type policy = {
  capacity : int;  (** admission window, as [Server.config.capacity] *)
  max_batch : int;
  linger_s : float;
  cadence : cadence;
  abft : bool;  (** keep checksums: per-step overhead buys tile repair *)
}

type faults = {
  p_tile : float;  (** busy-node failure is a single-tile corruption *)
  p_cone : float;  (** ... a wider corruption needing cone replay;
                       remaining mass is a hard rank loss *)
  repair_s : float;  (** downed node rejoins after this long *)
}

type config = {
  seed : int;
  machine : Xsc_simmachine.Machine.t;
  classes : Model.cls array;
  rate_hz : float;  (** offered Poisson arrival rate *)
  count : int;  (** offered requests *)
  policy : policy;
  faults : faults;
  spans : bool;  (** keep simulated span records (chrome-exportable) *)
}

type outcome =
  | Completed of { finish_s : float; on_time : bool; recoveries : int }
  | Rejected_admission  (** window full at arrival — never entered *)
  | Rejected_recovery of { at_s : float; recoveries : int }
      (** a failure left no recovery rung inside the deadline *)

type record = {
  id : int;
  cls : string;
  arrive_s : float;
  deadline_s : float;  (** absolute *)
  outcome : outcome;
}

type counters = {
  mutable offered : int;
  mutable admitted : int;
  mutable rejected_admission : int;
  mutable completed : int;
  mutable on_time : int;
  mutable rejected_recovery : int;
  mutable batches : int;
  mutable checkpoints : int;
  mutable failures_total : int;
  mutable failures_idle : int;
      (** landed on a free node, a downed node, or an allocation draining
          a recovery tail with no member left to expose *)
  mutable failures_busy : int;  (** landed on an active allocation *)
  mutable abft_repairs : int;
  mutable cone_replays : int;
  mutable restarts : int;
  mutable reject_hits : int;  (** failures whose only surviving rung was reject *)
}

type result = {
  records : record array;  (** indexed by request id *)
  counters : counters;
  makespan_s : float;
  goodput_rps : float;  (** on-time completions per simulated second *)
  availability : float;  (** on-time completions / offered *)
  p50_ms : float;
  p99_ms : float;
  util : float;  (** busy node-seconds / (nodes x makespan) *)
  young_by_class : (string * int) list;
      (** checkpoint cadence (steps) actually used; 0 = never *)
  failure_rate : float;  (** configured system failures/s *)
  empirical_failures : int;
  expected_failures : float;  (** [rate x makespan] *)
  outcome_hash : int64;  (** replay fingerprint over [records] *)
  wedged : bool;  (** horizon hit before every request settled: a bug *)
  sim_spans : Xsc_obs.Span.record list;
      (** simulated-time spans ([origin_ns = 0]); excluded from the
          fingerprint (span ids are process-global) *)
}

val run : config -> result
(** One seeded storm. Raises [Invalid_argument] on malformed configs
    (class larger than the machine, bad fault split, ...). *)

val reconciles : counters -> bool
(** The recovery-lattice accounting identity: every injected failure in
    exactly one bucket, every offered request in exactly one outcome. *)

val summary_fields : config -> result -> (string * Xsc_util.Json.t) list
(** One run as the fields of a flat JSON object: the config's [seed],
    [nodes], node and system MTBF and [rate_hz], the [offered] count,
    availability, goodput, p50/p99, utilisation, makespan, the recovery-lattice counters, the
    expected failure count, the replay fingerprint [outcome_hash] (hex),
    [reconciles] and [wedged]. [xsc fleet --json] writes them as its
    record; the fleet bench record carries one labelled object per run. *)
