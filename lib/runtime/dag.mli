(** Dependence analysis: task list -> DAG.

    Dependences are inferred from data accesses in program order, exactly as
    a superscalar runtime does: read-after-write, write-after-read and
    write-after-write conflicts each create an edge (transitively redundant
    edges are fine — schedulers only need reachability and counts). *)

type t = {
  tasks : Task.t array;  (** indexed by task id, 0..n-1, in program order *)
  succs : int list array;  (** successor ids *)
  preds : int list array;
  indegree : int array;
  level : int array;  (** longest edge count from any source *)
  levels : int list array;  (** tasks grouped by level — the fork-join phases *)
}

val build : Task.t list -> t
(** Tasks must be numbered [0 .. n-1] in list (program) order; raises
    [Invalid_argument] otherwise. *)

val n_tasks : t -> int
val n_edges : t -> int
val depth : t -> int
(** Number of levels (length of the longest chain). *)

val total_flops : t -> float

val critical_path_flops : t -> float
(** Maximum total flops along any path — the lower bound on any schedule's
    weighted span; the average parallelism [total/critical] predicts where
    strong scaling saturates. *)

val bottom_level : t -> float array
(** For each task, the heaviest flops-weighted downstream path including
    itself — the classic list-scheduling priority. *)

val sources : t -> int list

val validate_schedule : t -> order:int list -> bool
(** True iff [order] is a topological order containing every task exactly
    once. Kept as the test oracle for every executor's completion order. *)
