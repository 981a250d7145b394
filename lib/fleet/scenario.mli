(** The reference fleet scenario shared by [bench --fleet] and
    [xsc fleet]: a titan-like node scaled to the requested fleet size,
    node MTBF as the (accelerated) storm knob, and a two-class workload
    whose checkpoint-cadence economics have teeth. *)

val machine : nodes:int -> node_mtbf:float -> Xsc_simmachine.Machine.t
(** Titan-like node and network scaled to [nodes], with the per-node MTBF
    overridden — the storm knob compresses failure timescales far below
    the hardware rating (accelerated fault injection). *)

val default_classes : Model.cls array
(** [chol-64k] (16 ranks, 32 steps, checkpoint ~ one step) weighted 3:1
    against [gemm-32k] (16 ranks, 4 steps). *)

val sparse_class : Model.cls
(** [cg-27m]: a 300³-grid (27M-row) classic-CG class on 16 ranks, 500
    iteration steps, costed purely by memory bandwidth
    ({!Model.kind.Cg}). Backs [xsc fleet --mixed] through
    {!mixed_classes}; exported so the fleet tests can build one-class
    configs from it. *)

val mixed_classes : Model.cls array
(** {!default_classes} plus {!sparse_class} — the HPL-vs-HPCG mixed fleet
    workload. [default_classes] itself is unchanged, so prior seeded
    records replay bit-identically. *)

val config :
  ?cadence:Sim.cadence ->
  ?abft:bool ->
  ?capacity:int ->
  ?max_batch:int ->
  ?linger_s:float ->
  ?spans:bool ->
  ?classes:Model.cls array ->
  nodes:int ->
  node_mtbf:float ->
  rate_hz:float ->
  count:int ->
  seed:int ->
  unit ->
  Sim.config
(** A full simulator config over the reference scenario; every policy
    knob defaults to the bench's baseline (capacity 256, batches of 4
    with a 0.5 s linger, Young cadence, ABFT on). *)
