(** Top500 performance development and projection (FIG-1).

    Embedded June-list milestones (1993-2016, approximate published Rmax
    values) for the #1 system, the #500 entry and the list sum, with the
    log-linear fit that yields the talk's "~10x every 3.5-4 years" slope and
    its ~2020 exaflop projection. *)

type entry = {
  year : float;
  system : string;  (** the #1 machine of that list *)
  rmax_1 : float;  (** flop/s of #1 *)
  rmax_500 : float;  (** flop/s of the list's last entry *)
  sum : float;  (** flop/s summed over the list *)
}

val milestones : entry list
(** Ascending by year. *)

type series = Number_one | Number_500 | Sum

val values : series -> (float * float) array
(** (year, flop/s) points of a series. *)

val fit : series -> Xsc_util.Stats.linfit
(** Least squares on [log10(flops)] vs year. *)

val decade_years : Xsc_util.Stats.linfit -> float
(** Years per factor of 10 from the fitted slope — the talk quotes
    ~3.5-4 years. *)

val projected_year : series -> target:float -> float
(** Year at which the fitted trend reaches [target] flop/s. *)
