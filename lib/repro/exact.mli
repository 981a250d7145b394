(** Exact floating-point accumulation via Shewchuk expansions.

    An expansion represents a real number exactly as a sum of non-overlapping
    doubles. Adding a double to an expansion is error-free (Shewchuk's
    GROW-EXPANSION built on TWO-SUM), so a sum accumulated this way is exact
    and — crucially for the reproducibility experiment — independent of the
    order in which terms arrive. This is the "correctly rounded, reproducible
    reduction" reference against which the cheaper algorithms in
    {!Summation} are judged. *)

type t
(** A mutable exact accumulator. *)

val create : unit -> t

val add : t -> float -> unit
(** Error-free accumulation of one summand. Inputs must be finite. *)

val add_expansion : t -> t -> unit
(** [add_expansion acc other] folds [other]'s components into [acc]
    (error-free merge; the basis of the deterministic parallel reduction). *)

val value : t -> float
(** The correctly rounded double nearest the exact accumulated sum. *)

val components : t -> float array
(** The current non-overlapping components, smallest magnitude first.
    Kept as the test oracle for the expansion's non-overlap invariant. *)

val two_sum : float -> float -> float * float
(** [two_sum a b = (s, err)] with [s = fl(a+b)] and [a + b = s + err]
    exactly (Knuth's branch-free version). Backs TAB-2's exact sums;
    exported so a test checks the error-free transformation itself. *)

val sum : float array -> float
(** Convenience: the correctly rounded sum of an array. *)

val dot : float array -> float array -> float
(** Correctly rounded dot product using TWO-PRODUCT via FMA. *)
