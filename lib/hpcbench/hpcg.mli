(** HPCG-like benchmark: preconditioned CG on the 27-point stencil with the
    benchmark's flop accounting — the bandwidth-bound counterweight to HPL. *)

type run = {
  grid : int;  (** unknowns = grid³ *)
  iterations : int;
  seconds : float;
  gflops : float;
  final_relative_residual : float;
}

val run_host : ?iterations:int -> ?preconditioner:[ `Symgs | `Mg ] -> grid:int -> unit -> run
(** Preconditioned CG on a [grid³] 27-point problem, timed on this host
    (default 50 iterations, HPCG style — convergence quality is reported,
    not required). [`Symgs] (default) is the single-sweep smoother; [`Mg]
    is the full HPCG-style V-cycle (requires [grid] coarsenable, i.e.
    divisible by 2 at least once). Flop accounting follows the HPCG SymGS
    convention in both cases. *)

type model = {
  time_per_iteration : float;
  gflops_total : float;
  fraction_of_peak : float;
}

val model : Xsc_simmachine.Machine.t -> unknowns_per_node:int -> model
(** Machine-scale projection: SpMV and SymGS stream at the bandwidth
    roofline, dot products pay allreduce latency across all nodes. *)

val flops_per_iteration : nnz:float -> rows:float -> float
(** 1 SpMV (2 nnz) + 1 SymGS sweep (4 nnz) + 5 vector ops (2 rows each).
    Backs FIG-2: the flop count behind the HPCG rate; exported so a test
    pins the formula. *)
