(** Node failure process.

    Failures arrive as a Poisson process with rate [nodes / node_mtbf] —
    exactly the assumption behind the Young/Daly checkpoint analysis that the
    resilience experiment validates against simulation. *)

type t

val create : Xsc_util.Rng.t -> rate:float -> t
(** [rate] in failures/second (system-wide). *)

val of_machine : Xsc_util.Rng.t -> Machine.t -> t

val rate : t -> float
val mtbf : t -> float

val next_after : t -> float -> float
(** [next_after t now] draws the absolute time of the next failure strictly
    after [now] (exponential inter-arrival). *)

val failures_before : t -> horizon:float -> float list
(** All failure times in [\[0, horizon)], ascending (fresh draw). Kept as
    the test oracle for the failure process's rate and seeded replay. *)

val expected_failures : t -> horizon:float -> float
