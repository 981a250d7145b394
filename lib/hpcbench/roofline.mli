(** Roofline model: attainable performance as a function of arithmetic
    intensity. This single picture explains the paper's HPL/HPCG gap: dense
    factorizations sit on the compute roof, sparse solvers on the bandwidth
    slope, and the machine balance (flops per byte) decides how far apart
    the two are. *)

type point = {
  kernel : string;
  intensity : float;  (** flops per byte of memory traffic *)
  attainable : float;  (** flop/s on the given node, [min(peak, I * BW)] *)
  fraction_of_peak : float;
}

val gemm_intensity : nb:int -> float
(** Blocked GEMM working on [nb x nb] tiles: [2nb³ / (3 · 8 · nb²)] =
    [nb/12]. *)

val point :
  ?precision:Xsc_simmachine.Node.precision ->
  Xsc_simmachine.Node.t -> kernel:string -> intensity:float -> point
(** Roof at the given [intensity]; [precision] (default [FP64]) selects the
    compute ceiling — an f32 kernel is judged against the f32 roof. *)

val standard_points : ?nb:int -> Xsc_simmachine.Node.t -> point list
(** Triad, SpMV (27pt), small/large blocked GEMM — the canonical chart. *)

val ridge_point : Xsc_simmachine.Node.t -> float
(** Intensity at which the node transitions from bandwidth- to
    compute-bound ([peak / BW], the machine balance). *)

type achieved = {
  point : point;  (** the model side: intensity and its roof *)
  measured : float;  (** flop/s actually observed for the kernel *)
  roof_fraction : float;  (** [measured / point.attainable] *)
}

val achieved_point :
  ?precision:Xsc_simmachine.Node.precision ->
  Xsc_simmachine.Node.t -> kernel:string -> intensity:float -> measured:float -> achieved
(** Pair a measured rate (e.g. from {!Xsc_runtime.Trace.by_kernel_rates} or
    the [blas.*.flops] registry counters) with the model roof at the
    kernel's intensity — the "achieved vs roof" comparison that turns a
    roofline chart from a bound into a diagnosis. *)

val render_achieved : achieved list -> string
(** ASCII table: kernel, intensity, roof, achieved, % of roof. *)
