(** Structured-grid problem generators.

    The HPCG benchmark problem is a 27-point stencil on a 3-D grid; the
    7-point variant is the classic Poisson discretisation used by the CG
    convergence tests. Both produce symmetric positive definite matrices. *)

val poisson_3d : int -> Csr.t
(** 7-point stencil on an [n³] grid. *)

val hpcg_27pt : int -> Csr.t
(** 27-point stencil on an [n³] grid with the HPCG coefficients
    (26 on the diagonal, -1 on every neighbour, boundary-truncated). *)

val convection_diffusion_2d : ?cx:float -> ?cy:float -> int -> Csr.t
(** Upwind-discretised convection-diffusion [-Δu + c·∇u] on an [n x n]
    grid: NONSYMMETRIC for [c ≠ 0] (defaults [cx = cy = 1]), row-wise
    diagonally dominant — the GMRES test problem. *)

val grid_index : n:int -> int -> int -> int -> int
(** [(x, y, z)] to unknown index on an [n³] grid. *)

val exact_rhs : Csr.t -> Xsc_linalg.Vec.t * Xsc_linalg.Vec.t
(** [(x_exact, b)] with [x_exact = 1] everywhere and [b = A x_exact]
    (HPCG's manufactured solution). *)
