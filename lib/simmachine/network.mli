(** Alpha-beta-hop network cost model with collective operations.

    A point-to-point message of [b] bytes costs [alpha + per_hop * h +
    beta * b], with [h] the topology's average hop distance. Collectives use
    the standard Hockney-model algorithms (binomial trees, recursive
    doubling), so
    the latency/bandwidth trade-offs that motivate communication-avoiding
    algorithms are represented faithfully. *)

type t = {
  alpha : float;  (** injection latency, seconds *)
  beta : float;  (** seconds per byte *)
  per_hop : float;  (** seconds per network hop *)
  topology : Topology.t;
}

val create : ?alpha:float -> ?beta:float -> ?per_hop:float -> Topology.t -> t
(** Defaults correspond to a ~1 us / 10 GB/s 2016-era interconnect:
    [alpha = 1e-6], [beta = 1e-10], [per_hop = 5e-8]. *)

val ptp_avg : t -> bytes:float -> float
(** Point-to-point cost at the topology's average hop distance — used when
    the simulator does not track placements. *)

val bcast_time : t -> ranks:int -> bytes:float -> float
(** Binomial tree: [ceil(log2 p)] rounds. *)

val allreduce_time : t -> ranks:int -> bytes:float -> float
(** Recursive doubling: [log2 p * (alpha + hop + beta b)] — the
    synchronisation cost that dot products pay in Krylov solvers. *)

val barrier_time : t -> ranks:int -> float

val rounds : int -> int
(** [ceil(log2 p)], exposed for the cost-model formulas in [Xsc_ca]. *)
