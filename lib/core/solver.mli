(** High-level solver front end — the library's main entry point.

    Wraps the tiled factorizations with padding (so any size works, not just
    multiples of the tile size), execution policy selection, optional
    mixed-precision iterative refinement, and optional ABFT verification —
    i.e. the "new rules" packaged behind one call.

    The SPD and diagonally dominant solves run the program the solver
    service runs: the packed tile storage, the {!Xsc_linalg.Pblas} C
    kernels and the packed triangular sweeps. Their answers are bitwise
    equal to the server's ([Xsc_serve.Route.direct ~nb]) on the same
    matrix, right-hand side and tile size, under every executor. *)

open Xsc_linalg

type options = {
  nb : int;  (** tile size *)
  exec : Runtime_api.exec;
}
(** When [?opts] is omitted the solvers run [Sequential] with the tile
    size of the host's kernel-tuning cache, read at call time
    ({!Xsc_tile.Packed.tuned_nb}[ ~fallback:64]), so an [xsc tune] winner
    reaches every padding/tiling site without threading a parameter. *)

val with_workers : ?nb:int -> int -> options
(** Dataflow execution on [n] domains. [nb] defaults to the tuned tile
    size at call time, like the [?opts]-less solvers. *)

val solve_spd : ?opts:options -> Mat.t -> Vec.t -> Vec.t
(** SPD solve via the packed tiled Cholesky ({!Cholesky.factor_packed},
    then {!Xsc_tile.Packed.D.potrs}). The matrix is padded to a tile
    multiple with an identity block (harmless for SPD). Raises
    [Xsc_linalg.Pblas.Singular] if the matrix is not positive definite. *)

val solve_general : ?opts:options -> Mat.t -> Vec.t -> Vec.t
(** General solve. Strictly diagonally dominant matrices go through the
    packed tiled no-pivoting LU ({!Lu.factor_packed}, then
    {!Xsc_tile.Packed.D.getrs_nopiv}; fastest DAG, the server's answer);
    everything else through the tiled incremental-pivoting LU ({!Lu_inc})
    — still a scalable task DAG, with tile-local pivoting providing the
    stability. *)

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
          machine where the low format runs at twice the double rate *)
}

val solve_spd_mixed : Mat.t -> Vec.t -> mixed_report
(** Mixed-precision SPD solve: the real float32 packed tiled Cholesky
    ({!Xsc_precision.Ir.chol_ir32}, tuned tile size), iterative refinement
    in double. [modeled_speedup] assumes float32 runs at twice the double
    rate. *)

type protected_report = {
  x : Vec.t;
  corruption_detected : bool;
  recovered_from_row : int option;
}

val solve_spd_protected :
  ?opts:options -> ?inject:(Mat.t -> unit) -> Mat.t -> Vec.t -> protected_report
(** ABFT-verified SPD solve: factor with the packed tiled Cholesky (raises
    [Xsc_linalg.Pblas.Singular] if not positive definite), unpack the
    factor, run the O(n²) checksum verification,
    recover by lineage recomputation if corruption is found (the [inject]
    hook corrupts the factor between factorization and verification — used
    by tests and the resilience experiment), then solve. *)

val residual : Mat.t -> Vec.t -> Vec.t -> float
(** Normwise relative backward error
    [||b - Ax||_inf / (||A||_inf ||x||_inf + ||b||_inf)]. *)
