type kind =
  | Task_start
  | Task_finish
  | Steal
  | Steal_fail
  | Park
  | Unpark
  | Barrier_enter
  | Barrier_exit

type event = { kind : kind; t_ns : int; arg : int }

type t = { rings : Ring.t array; t0_ns : int }

let kind_to_int = function
  | Task_start -> 0
  | Task_finish -> 1
  | Steal -> 2
  | Steal_fail -> 3
  | Park -> 4
  | Unpark -> 5
  | Barrier_enter -> 6
  | Barrier_exit -> 7

let kind_of_int = function
  | 0 -> Task_start
  | 1 -> Task_finish
  | 2 -> Steal
  | 3 -> Steal_fail
  | 4 -> Park
  | 5 -> Unpark
  | 6 -> Barrier_enter
  | 7 -> Barrier_exit
  | k -> invalid_arg (Printf.sprintf "Tracer: unknown event kind %d" k)

let create ~domains ~capacity =
  if domains <= 0 then invalid_arg "Tracer.create: domains must be positive";
  {
    rings = Array.init domains (fun _ -> Ring.create ~capacity);
    t0_ns = Clock.now_ns ();
  }

let enabled_by_env () =
  match Sys.getenv_opt "XSC_TRACE" with
  | None | Some "" | Some "0" | Some "false" -> false
  | Some _ -> true

(* Drops surface on a metric immediately, not just in the post-hoc ring
   count: heavy tracing that overflows a ring shows up in the bench
   metrics object instead of silently truncating the trace. *)
let m_dropped = Metrics.counter "obs.trace.dropped"

let record t ~domain k ~arg =
  if not (Ring.record t.rings.(domain) ~kind:(kind_to_int k) ~t_ns:(Clock.now_ns ()) ~arg) then
    Metrics.incr m_dropped

let origin_ns t = t.t0_ns

let events t ~domain =
  let r = t.rings.(domain) in
  List.init (Ring.length r) (fun i ->
      let kind, t_ns, arg = Ring.get r i in
      { kind = kind_of_int kind; t_ns; arg })

let domains t = Array.length t.rings
let dropped t = Array.fold_left (fun acc r -> acc + Ring.dropped r) 0 t.rings
