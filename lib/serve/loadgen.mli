(** Seeded load generation and SLO reporting for the solver service.

    The arrival schedule (Poisson inter-arrival gaps) and every problem
    instance are pure functions of the seed, so a load run is exactly
    repeatable: same seed, same arrival times, same matrices, same request
    ids — which is what lets a seeded fault storm assert exactly which
    requests were injected.

    Report quantiles are exact sample percentiles over the run's completed
    requests (not the metrics registry's log2-bucket estimates — see
    {!Xsc_obs.Metrics.quantile} for that tradeoff). *)

type kind =
  | Spd  (** SPD solve via Cholesky *)
  | General  (** general solve via partial-pivoting LU *)
  | Product  (** dense GEMM *)
  | Cg  (** CG solve over a 7-point Poisson stencil — bandwidth-bound *)
  | Mg  (** multigrid solve over the 27-point stencil — bandwidth-bound *)

type config = {
  seed : int;
  rate_hz : float;  (** Poisson arrival rate *)
  count : int;  (** total requests offered *)
  n : int;
      (** problem size. Dense kinds: the matrix order. Sparse kinds
          ([Cg]/[Mg]): the GRID EDGE — the operator has [n^3] rows
          ([Mg] needs [n] even, for coarsening). Reusing one field keeps
          every existing full-literal [config] construction site valid. *)
  kinds : kind array;  (** drawn uniformly per arrival *)
  deadline_s : float;  (** per-request deadline *)
}

val default : config
(** seed 42, 500 req/s, 100 requests, n=48 SPD solves, 50 ms deadline. *)

type arrival = { at_s : float; kind : kind; problem_seed : int }

val schedule : config -> arrival array
(** Deterministic: equal configs yield element-wise equal schedules.
    Raises [Invalid_argument] on non-positive [count]/[rate_hz] or empty
    [kinds]. *)

val payload_of : config -> arrival -> Request.payload
(** The problem instance for an arrival — deterministic from
    [problem_seed]. Sparse instances carry fixed tolerance/iteration
    budgets generous enough that a fault-free solve always converges. *)

val reference : config -> arrival -> Request.solution
(** Direct (unserved) solution of the same instance through the same
    kernels: a fault-free served answer must be bitwise identical. Sparse
    instances run the sequential {!Route.direct} chain (the Slot path is
    the same call, so for them this coincides with {!reference_routed})
    and raise {!Route.Non_convergence} if the instance cannot meet its
    tolerance. *)

val reference_routed : ?nb:int -> config -> arrival -> Request.solution
(** {!Route.direct} on the same instance: the oracle for the shared-pool
    dispatch path ({!Server.Shared}). The packed kernels are bitwise
    schedule-independent, so a completed pool-served answer must equal
    this bit for bit — under any interleaving or seeded fault storm
    (replays re-run the same plan). *)

val solutions_bitwise_equal : Request.solution -> Request.solution -> bool

type report = {
  offered : int;
  admitted : int;
  rejected : int;
  completed : int;
  failed : int;
  retried : int;
  wall_s : float;
  offered_rate : float;  (** offered / wall, req/s *)
  throughput : float;  (** completed / wall, req/s *)
  goodput : float;  (** completed within deadline / wall, req/s *)
  reject_rate : float;  (** rejected / offered *)
  p50_ms : float;  (** exact sample percentiles of total latency *)
  p99_ms : float;
  p999_ms : float;
  mean_batch : float;
      (** requests admitted during the run, over all its streams, per
          batch dispatched during it *)
}

type loop =
  | Open  (** offer each instance at its scheduled Poisson arrival time *)
  | Closed of int
      (** keep this many requests outstanding; refill as soon as any
          resolves *)

type stream = { load : config; loop : loop }

type result = {
  report : report;
  pairs : (arrival * Request.completion) list;
      (** every admitted request with its completion, in submission
          order — for bitwise checks against {!reference_routed} *)
}

val run : Server.t -> stream list -> result list
(** Drive every stream from one client thread; one result per stream, in
    order. Every payload is generated before the clock starts (dense
    generation is O(n{^3}), pricier than the solve, so inline generation
    would pace the offered load).

    - Open arrivals of all streams are merged in time order and submitted
      whether or not the server keeps up (the honest overload model). A
      burst is an open stream with a rate far above service.
    - A closed stream run beside open ones cycles its [count] instances
      until every open arrival has been offered: background load for the
      whole run. Its report's [offered] is what it actually submitted.
    - Closed streams alone each offer exactly [count] requests; the client
      blocks in {!Server.await} on the oldest ticket whenever no window
      can grow, so a saturated run spends no time polling.

    Every admitted request is awaited before the run returns. [wall_s] is
    the run's, shared by all streams, and so is [mean_batch]: all admitted
    requests over the batches dispatched during the run. Raises
    [Invalid_argument] on a non-positive [Closed] window or an invalid
    config (see {!schedule}). *)

val json_of_report : report -> Xsc_util.Json.t
val report_human : report -> string
