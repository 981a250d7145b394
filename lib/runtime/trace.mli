(** Execution traces: what ran where and when — the evidence behind the
    utilization plots (dense Gantt for DAG scheduling, comb-shaped gaps for
    fork-join). *)

type entry = { task : int; name : string; worker : int; start : float; finish : float }

type t

val create : workers:int -> t
val add : t -> entry -> unit
val entries : t -> entry list
(** In increasing start order. *)

val makespan : t -> float
val busy_time : t -> float
val utilization : t -> float
(** [busy / (workers * makespan)]; 1.0 is a perfectly packed schedule. *)

val workers : t -> int

val gantt : ?width:int -> t -> string
(** ASCII Gantt chart, one row per worker ([#] busy, [.] idle). *)

val to_chrome_json : ?extra:Xsc_util.Json.t list -> t -> string
(** Chrome trace-event JSON (open in chrome://tracing or Perfetto): one
    complete event per task on pid 0, workers as threads, microsecond
    timestamps, then the [extra] trace-event objects in the same array —
    used to interleave request-lane span events
    ({!Xsc_obs.Span.chrome_events}, pid 1) with the worker-lane task
    events in one file. *)

val by_kernel : t -> (string * float * int) list
(** Profile summary: per kernel family (the task-name prefix before ['(']),
    total busy time and task count, sorted by descending time — "where did
    the time go". *)

val by_kernel_rates : t -> flops_of:(int -> float) -> (string * float * int * float) list
(** {!by_kernel} extended with achieved flop/s per family:
    [(family, busy_seconds, count, flops_per_second)], where the flops of
    each traced task come from [flops_of task_id] (typically
    [dag.tasks.(id).flops]). This is the measured side of the roofline's
    "achieved vs roof" comparison. *)
