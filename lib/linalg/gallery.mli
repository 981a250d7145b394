(** Matrix gallery: test matrices with controlled properties (in the spirit
    of LAPACK's latms / MATLAB's gallery). Used by the experiments to put
    solvers exactly at the conditioning regimes the theory talks about. *)

val with_spectrum : Xsc_util.Rng.t -> float array -> Mat.t
(** Symmetric matrix with exactly the given eigenvalues ([Q D Qᵀ] for a
    random orthogonal [Q]). The construction under {!spd_with_cond};
    exported so a test checks the spectrum it produces. *)

val spd_with_cond : Xsc_util.Rng.t -> int -> cond:float -> Mat.t
(** SPD matrix with 2-norm condition number [cond] (geometrically spaced
    spectrum in [\[1/cond, 1\]]). *)

val hilbert : int -> Mat.t
(** The Hilbert matrix [1/(i+j+1)] — the classic exponentially
    ill-conditioned SPD example. Kept as a test input of known
    conditioning for the {!Eigen} oracle. *)

val tridiagonal_toeplitz : int -> diag:float -> off:float -> Mat.t
(** Dense storage of the [(off, diag, off)] Toeplitz tridiagonal, whose
    eigenvalues are known in closed form ([diag + 2 off cos(k pi/(n+1))]).
    Kept as the closed-form test oracle for {!Eigen}. *)
