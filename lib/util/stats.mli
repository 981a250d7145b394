(** Small statistics toolkit used by the benchmark harness and the Top500
    trend analysis. *)

val mean : float array -> float

val median : float array -> float
(** Median; does not modify the input. Raises [Invalid_argument] on empty. *)

val percentile : float array -> float -> float
(** [percentile a p] for [p] in [\[0,100\]], linear interpolation between
    order statistics. Raises [Invalid_argument] on empty input. *)

type linfit = { slope : float; intercept : float; r2 : float }

val linear_fit : (float * float) array -> linfit
(** Ordinary least squares [y = slope * x + intercept] with coefficient of
    determination. Raises [Invalid_argument] on fewer than 2 points. *)
