(* Composite task priority for the shared deadline-aware pool.

   Ordering, most significant first:
   - [deadline_ns] ascending — EDF dominates: a task belonging to a
     request due sooner always outranks one due later, however deep the
     later one sits on its own critical path;
   - [bl] descending — within a deadline, the flops-weighted bottom level
     (critical-path distance to the job's sink, normalised per job):
     panel factorizations and the updates feeding them run before
     trailing-matrix updates, the simulator's List_critical_path
     heuristic;
   - [seq] ascending — submission order of the owning job: equal-deadline
     equal-criticality work dispatches FIFO, so no request is overtaken
     by an equally urgent latecomer;
   - [tid] ascending — program order within one job, the final total-order
     tie-break (two ready siblings of one job with equal bottom level). *)

type t = {
  deadline_ns : int;
  bl : int;
  seq : int;
  tid : int;
}

let make ~deadline_ns ~bl ~seq ~tid = { deadline_ns; bl; seq; tid }

(* Smaller = more urgent (min-heap convention). *)
let compare a b =
  if a.deadline_ns <> b.deadline_ns then Stdlib.compare a.deadline_ns b.deadline_ns
  else if a.bl <> b.bl then Stdlib.compare b.bl a.bl (* deeper bottom level first *)
  else if a.seq <> b.seq then Stdlib.compare a.seq b.seq
  else Stdlib.compare a.tid b.tid

let before a b = compare a b < 0

(* Per-job bottom-level ranks, normalised to a common [0, 1e6] integer
   scale (flops-weighted bottom level over the job's critical path) so the
   tie-break is comparable across jobs of different absolute flop counts. *)
let bl_ranks (dag : Dag.t) =
  let bl = Dag.bottom_level dag in
  let cp = Dag.critical_path_flops dag in
  if cp <= 0.0 then Array.make (Dag.n_tasks dag) 0
  else Array.map (fun b -> int_of_float (1e6 *. b /. cp)) bl

let to_string k =
  Printf.sprintf "{deadline=%d bl=%d seq=%d tid=%d}" k.deadline_ns k.bl k.seq k.tid
