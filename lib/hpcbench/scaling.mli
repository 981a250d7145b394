(** Weak vs strong scaling of the stencil workload (halo-exchange model).

    The talk's Gustafson-vs-Amdahl picture: with fixed work per node (weak
    scaling) the only growing costs are the halo exchange and the [log p]
    allreduce, so efficiency stays high; with fixed total work (strong
    scaling) the local volume shrinks until boundaries and latency dominate.
    The per-rank grid is a [local³] cube of a 27-point stencil; halos are
    one cell thick (6 faces, 12 edges, 8 corners). *)

val halo_bytes : local:int -> float
(** Bytes sent by one rank per SpMV (8-byte values). Backs TAB-6: the
    halo term of {!iteration_time}; exported so a test pins the formula. *)

val iteration_time : Xsc_simmachine.Machine.t -> local:int -> nodes:int -> float
(** One CG/HPCG-style iteration: bandwidth-limited local streaming + halo
    exchange with neighbours + 2 scalar allreduces across [nodes]. *)

val weak_efficiency : Xsc_simmachine.Machine.t -> local:int -> nodes:int -> float
(** [t(1 node) / t(p nodes)] at constant per-node volume. *)

val strong_efficiency : Xsc_simmachine.Machine.t -> total:int -> nodes:int -> float
(** [t(1) / (p * t(p))] at constant total volume [total³] (the per-node
    volume shrinks as [total³/p]); 1.0 is perfect strong scaling. *)
