(** High-level solver front end — the library's main entry point.

    Wraps the tiled factorizations with padding (so any size works, not just
    multiples of the tile size), execution policy selection, optional
    mixed-precision iterative refinement, and optional ABFT verification —
    i.e. the "new rules" packaged behind one call. *)

open Xsc_linalg

type options = {
  nb : int;  (** tile size *)
  exec : Runtime_api.exec;
}

val default : options
(** [nb = 64], [Sequential] — the untuned baseline. When [?opts] is
    omitted the solvers do {i not} use this record verbatim: they read the
    host's kernel-tuning cache at call time
    ({!Xsc_tile.Packed.tuned_nb}[ ~fallback:64]), so an [xsc tune] winner
    reaches every padding/tiling site without threading a parameter. *)

val with_workers : ?nb:int -> int -> options
(** Dataflow execution on [n] domains. [nb] defaults to the tuned tile
    size at call time, like the [?opts]-less solvers. *)

val solve_spd : ?opts:options -> Mat.t -> Vec.t -> Vec.t
(** SPD solve via tiled Cholesky. The matrix is padded to a tile multiple
    with an identity block (harmless for SPD). *)

val solve_general : ?opts:options -> Mat.t -> Vec.t -> Vec.t
(** General solve. Strictly diagonally dominant matrices go through the
    tiled no-pivoting LU (fastest DAG); everything else through the tiled
    incremental-pivoting LU ({!Lu_inc}) — still a scalable task DAG, with
    tile-local pivoting providing the stability. *)

val solve_ls : ?opts:options -> Mat.t -> Vec.t -> Vec.t
(** Overdetermined least squares via tiled QR (dimensions must be tile
    multiples with [rows >= cols]). *)

type mixed_report = {
  x : Vec.t;
  iterations : int;
  converged : bool;
  backward_error : float;
  modeled_speedup : float;
      (** modelled time(fp64 direct) / time(low-precision + refinement) on a
          machine with the given rate advantage *)
}

val solve_spd_mixed :
  ?precision:string -> ?low_rate_mult:float -> Mat.t -> Vec.t -> mixed_report
(** Mixed-precision SPD solve: Cholesky at [precision] (default ["fp32"]),
    iterative refinement in double. [low_rate_mult] is the modelled hardware
    rate advantage of the low format (default 2). *)

type protected_report = {
  x : Vec.t;
  corruption_detected : bool;
  recovered_from_row : int option;
}

val solve_spd_protected :
  ?opts:options -> ?inject:(Mat.t -> unit) -> Mat.t -> Vec.t -> protected_report
(** ABFT-verified SPD solve: factor, run the O(n²) checksum verification,
    recover by lineage recomputation if corruption is found (the [inject]
    hook corrupts the factor between factorization and verification — used
    by tests and the resilience experiment), then solve. *)

val residual : Mat.t -> Vec.t -> Vec.t -> float
(** Normwise relative backward error
    [||b - Ax||_inf / (||A||_inf ||x||_inf + ||b||_inf)]. *)
