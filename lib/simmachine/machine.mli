(** A whole simulated machine: homogeneous nodes plus a network, with the
    derived quantities the experiments report (peak rate, energy, MTBF). *)

type t = {
  name : string;
  node : Node.t;
  node_count : int;
  network : Network.t;
  node_mtbf : float;  (** mean time between failures of one node, seconds *)
}

val create :
  ?name:string -> ?node_mtbf:float -> node:Node.t -> node_count:int ->
  network:Network.t -> unit -> t
(** [node_mtbf] defaults to 5 years — the commodity-part figure that makes
    system MTBF collapse at scale. *)

val total_cores : t -> int
val peak : t -> Node.precision -> float
(** Aggregate flop/s. *)

val system_mtbf : t -> float
(** [node_mtbf / node_count]: the paper's "at exascale the machine fails
    every few minutes" arithmetic. *)

val power : t -> float
(** Total power at load (network overhead folded into node watts). *)

val energy : t -> seconds:float -> float

val describe : t -> string
