(** HPL-like benchmark: dense LU solve with the official flop count and
    residual check — run for real on the host, and modelled at machine
    scale. *)

type run = {
  n : int;
  seconds : float;
  gflops : float;
  residual : float;  (** HPL's scaled residual; must be O(1) to "pass" *)
  passed : bool;
}

val flops : int -> float
(** [2n³/3 + 3n²/2] — the official count. *)

val run_host : ?seed:int -> n:int -> unit -> run
(** Random well-conditioned system, partial-pivoting LU, timed on this
    host. *)

val run_host_tiled : ?seed:int -> ?nb:int -> ?workers:int -> n:int -> unit -> run
(** Same benchmark through [Solver.solve_general] — the packed tiled
    no-pivoting LU, on the dataflow executor when [workers > 1] (a
    diagonally dominant system is generated). *)

type model = {
  time : float;
  gflops_total : float;
  fraction_of_peak : float;
}

val model : Xsc_simmachine.Machine.t -> n:int -> ?nb:int -> unit -> model
(** Machine-scale projection: DGEMM-dominated compute from the roofline
    rate at blocked-GEMM intensity, plus panel-broadcast network terms. *)

val pick_n : Xsc_simmachine.Machine.t -> memory_per_node:float -> int
(** Problem size filling the given fraction of node memory (bytes per
    node), rounded to a multiple of 256 — the usual HPL sizing rule. *)
