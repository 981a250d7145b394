(** Parameter-search strategies for autotuning.

    Objectives map a candidate to a cost (lower is better: seconds,
    simulated makespan, energy). Strategies trade evaluations for
    optimality — exhaustive search is the reference; hill climbing and
    successive halving are the budget-constrained practical tools. *)

type 'a evaluation = { candidate : 'a; cost : float }

val grid : candidates:'a list -> f:('a -> float) -> 'a evaluation list * 'a evaluation
(** Evaluate every candidate; returns all evaluations (input order) and the
    best. Raises [Invalid_argument] on an empty candidate list. *)

val hill_climb :
  ?max_steps:int -> neighbours:('a -> 'a list) -> start:'a -> ('a -> float) ->
  'a evaluation
(** [hill_climb ~neighbours ~start f]: greedy descent — move to the best
    strictly improving neighbour until a local optimum (or [max_steps],
    default 100). Each distinct candidate is evaluated at most once: costs
    are memoised on the candidate (a [Hashtbl] key, so no functional
    values). *)

val successive_halving :
  ?eta:int -> candidates:'a list -> budget0:int -> ('a -> budget:int -> float) ->
  'a evaluation
(** Successive halving: evaluate all candidates at budget [budget0], keep
    the best [1/eta] (default [eta = 2]) at doubled budget, repeat until one
    survives. [f] must return comparable costs for equal budgets. *)
