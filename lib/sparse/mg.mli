(** Geometric multigrid on the 3-D stencil problems.

    The real HPCG preconditioner is a short V-cycle with symmetric
    Gauss-Seidel smoothing over a hierarchy of coarsened grids. This module
    builds that hierarchy for an [n³] grid (n halving per level, injection
    restriction, trilinear-ish prolongation by replication) and exposes the
    V-cycle both as a standalone solver and as a CG preconditioner. *)

type t

type smoother = Symgs | Jacobi

val create : ?levels:int -> ?smoother:smoother -> ?stencil:(int -> Csr.t) -> int -> t
(** [create n] builds the hierarchy for an [n³] fine grid ([n] even;
    coarsening stops after [levels] (default 4, HPCG's depth) or when the
    grid would drop below 2). [stencil] defaults to {!Stencil.hpcg_27pt};
    [smoother] to [Symgs] (HPCG's choice — [Jacobi] trades a weaker smoother
    for full row-parallelism). *)

val levels : t -> int
val fine_matrix : t -> Csr.t
(** The finest-level operator. Kept so tests can measure true residuals. *)

val preconditioner : t -> Xsc_linalg.Vec.t -> Xsc_linalg.Vec.t
(** [M⁻¹ r] = one V-cycle from a zero initial guess — plug into
    [Cg.solve ~precond]. Symmetric positive by construction (SymGS
    smoothers), so CG theory applies. *)

val solve : ?tol:float -> ?max_cycles:int -> t -> Xsc_linalg.Vec.t -> Xsc_linalg.Vec.t * int
(** Stationary V-cycle iteration until the relative residual drops below
    [tol] (default 1e-8); returns the solution and cycle count. *)

(** {2 Resumable stepper}

    The stationary iteration exposed a chunk of V-cycles at a time, for the
    serve routing layer. {!solve} is the stepper driven to completion, so
    chunked solves are bitwise-identical to sequential ones by construction.
    A hierarchy [t] holds mutable per-level scratch: a stepper borrows it
    exclusively until finished. *)

type stepper

val stepper : ?tol:float -> ?max_cycles:int -> t -> Xsc_linalg.Vec.t -> stepper
(** Initialise a solve of [A x = b] from a zero guess; the convergence
    check (TRUE residual [b - A x], never a recurrence) runs here and
    after every cycle, so {!finished}/{!converged} are always decided. *)

val step : stepper -> int -> unit
(** Advance up to [k] V-cycles; stops early at convergence or the cycle
    cap. No-op once finished. *)

val finished : stepper -> bool

val converged : stepper -> bool
(** True residual at or below target — [false] after a cap-out means the
    answer is NOT trusted. *)

val solution : stepper -> Xsc_linalg.Vec.t * int
