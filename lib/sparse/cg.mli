(** Conjugate gradient variants with synchronisation accounting.

    At scale every dot product is a blocking allreduce across the whole
    machine, so the "rule change" is to reformulate CG to synchronise less:

    - {!Classic}: textbook (P)CG — two reduction points per iteration;
    - {!Chronopoulos_gear}: the fused three-term variant — both dot products
      in ONE reduction per iteration;
    - {!Pipelined}: Ghysels-Vanroose — one reduction per iteration that
      overlaps the SpMV, so its latency hides entirely.

    All variants produce the same iterates in exact arithmetic; the
    experiment (FIG-5) shows equal convergence with fewer/hidden
    synchronisations, and the cost model turns the counts into time on a
    simulated machine. *)

open Xsc_linalg

type variant = Classic | Chronopoulos_gear | Pipelined

type result = {
  x : Vec.t;
  iterations : int;
  converged : bool;
  residual_norm : float;  (** final true residual 2-norm *)
  sync_points : int;  (** blocking reduction points executed *)
  spmv_count : int;
  flops : float;
}

val solve :
  ?variant:variant -> ?precond:(Vec.t -> Vec.t) -> ?max_iter:int -> ?tol:float ->
  ?x0:Vec.t -> Csr.t -> Vec.t -> result
(** Solve [A x = b], SPD [A]. [tol] is the relative residual target
    (default 1e-10 on ||r||/||b||). [precond] (an application of M⁻¹) is
    honoured by the [Classic] variant only — raises [Invalid_argument] if
    given with a fused variant. *)

(** {2 Resumable stepper}

    The classic variant exposed as a resumable iteration: the serve routing
    layer advances a solve a chunk of iterations at a time as pool tasks.
    [solve ~variant:Classic] is itself the stepper driven to completion, so
    a chunked solve is bitwise-identical to the sequential one by
    construction — the sequential solve is a valid oracle for any chunking. *)

type stepper

val stepper :
  ?precond:(Vec.t -> Vec.t) -> ?max_iter:int -> ?tol:float -> ?x0:Vec.t ->
  Csr.t -> Vec.t -> stepper
(** Initialise a classic-(P)CG solve of [A x = b] (same defaults and
    validation as {!solve}). The initial residual/search-direction setup
    runs here. *)

val step : stepper -> int -> unit
(** [step s k] advances up to [k] iterations; stops early at convergence,
    breakdown, or the iteration cap. No-op once {!finished}. *)

val finished : stepper -> bool
val result : stepper -> result
(** Finalise: recomputes the TRUE residual [b - A x] (never trusts the
    recurrence), so a corrupted or stagnated solve reports
    [converged = false] rather than silently returning a wrong answer. *)

val symgs_preconditioner : Csr.t -> Vec.t -> Vec.t
(** One symmetric Gauss-Seidel sweep from a zero initial guess — the HPCG
    preconditioner. Usage: [solve ~precond:(symgs_preconditioner a) a b]. *)

val variant_name : variant -> string

val modeled_iteration_time :
  variant -> network:Xsc_simmachine.Network.t -> ranks:int -> spmv_time:float ->
  vector_time:float -> float
(** Per-iteration wall time on the modelled machine: local kernel times plus
    the variant's synchronisation cost (fused variants pay one allreduce;
    the pipelined variant pays only what the SpMV fails to hide). *)

val modeled_sstep_iteration_time :
  s:int -> network:Xsc_simmachine.Network.t -> ranks:int -> spmv_time:float ->
  vector_time:float -> float
(** Amortised per-iteration time of s-step CG: one block reduction
    ([O(s²)] words) every [s] iterations plus ~15% extra local work for the
    basis construction (Hoemmen's accounting). The numerical-stability
    limits of large [s] are outside this model (documented, not modelled). *)
