(** Schedule simulation: execute a task DAG on a modelled machine.

    This is where the paper's central comparison lives — bulk-synchronous
    (fork-join) execution, which inserts a barrier after every dependence
    level, versus asynchronous DAG scheduling, which starts a task the moment
    its own inputs are ready. Durations come from task flop weights and the
    worker rate; moving a datum between workers pays the network model's
    point-to-point cost. *)

type policy =
  | Bsp
      (** level-by-level with a global barrier per level (LPT packing within
          a level) *)
  | List_critical_path
      (** greedy list scheduling, bottom-level (critical path) priority —
          the PLASMA-style dynamic schedule *)
  | List_fifo  (** greedy list scheduling in program order *)
  | Work_stealing of int
      (** list scheduling with uniformly random task choice (seeded) — an
          idealised work-stealing executor *)

type config = {
  workers : int;
  rate : float;  (** flop/s per worker *)
  task_overhead : float;  (** runtime bookkeeping cost charged per task *)
  barrier_cost : float;  (** charged per BSP level *)
  comm_cost : bytes:float -> float;
      (** cost of moving a predecessor's output between workers *)
}

val config :
  ?task_overhead:float -> ?barrier_cost:float -> ?comm_cost:(bytes:float -> float) ->
  workers:int -> rate:float -> unit -> config
(** Defaults: [5e-7] s overhead, [5e-6] s barrier, zero-cost communication. *)

type result = {
  makespan : float;
  utilization : float;
  comm_time : float;  (** total transfer delay paid on dependence edges *)
  barriers : int;
  trace : Trace.t;
  order : int list;  (** task start order (a valid topological order) *)
}

val run : config -> policy -> Dag.t -> result

val speedup : baseline:result -> result -> float

val perfect_time : config -> Dag.t -> float
(** [total_flops / (workers * rate)] — the throughput bound. *)

val critical_time : config -> Dag.t -> float
(** Critical path at the worker rate — the span bound. Kept as the test
    oracle that bounds every simulated makespan from below. *)
