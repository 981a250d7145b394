(* Per-class SLO monitors: a latency target plus an error budget per
   request kind. A request "violates" when it failed or finished over
   target; the burn rate is the violating fraction divided by the budget
   — 1.0 means the class is consuming its budget exactly as fast as
   allowed, above 1.0 the class is in breach. Worst offenders are kept
   by id so a breach in a bench record points at concrete requests. *)

module Metrics = Xsc_obs.Metrics

type objective = {
  kind : string; (* "spd" | "lu" | "gemm", or "*" for any *)
  latency_s : float;
  error_budget : float; (* allowed violating fraction, in (0,1] *)
}

type class_state = {
  objective : objective;
  mutable total : int;
  mutable violations : int;
  mutable breaches : int; (* times the class entered breach *)
  mutable in_breach : bool;
  mutable worst : (int * float) list; (* (request id, latency), worst first *)
}

type t = {
  objectives : objective list;
  classes : (string, class_state) Hashtbl.t;
  mu : Mutex.t;
}

let worst_k = 3

let m_violations = Metrics.counter "serve.slo.violations"
let m_breaches = Metrics.counter "serve.slo.breaches"

let create objectives =
  List.iter
    (fun o ->
      if o.latency_s <= 0.0 then invalid_arg "Slo.create: latency_s must be positive";
      if o.error_budget <= 0.0 || o.error_budget > 1.0 then
        invalid_arg "Slo.create: error_budget must be in (0,1]")
    objectives;
  { objectives; classes = Hashtbl.create 8; mu = Mutex.create () }

(* first match wins; "*" is the catch-all *)
let objective_for t kind =
  List.find_opt (fun o -> o.kind = kind || o.kind = "*") t.objectives

let burn_rate_of st =
  if st.total = 0 then 0.0
  else float_of_int st.violations /. float_of_int st.total /. st.objective.error_budget

let observe t ~kind ~id ~latency_s ~failed =
  match objective_for t kind with
  | None -> false
  | Some o ->
    Mutex.lock t.mu;
    let st =
      match Hashtbl.find_opt t.classes kind with
      | Some st -> st
      | None ->
        let st =
          { objective = o; total = 0; violations = 0; breaches = 0; in_breach = false; worst = [] }
        in
        Hashtbl.add t.classes kind st;
        st
    in
    st.total <- st.total + 1;
    if failed || latency_s > o.latency_s then begin
      st.violations <- st.violations + 1;
      Metrics.incr m_violations;
      st.worst <-
        (id, latency_s) :: st.worst
        |> List.sort (fun (_, a) (_, b) -> compare b a)
        |> List.filteri (fun i _ -> i < worst_k)
    end;
    let burning = burn_rate_of st > 1.0 in
    let newly = burning && not st.in_breach in
    if newly then begin
      st.breaches <- st.breaches + 1;
      Metrics.incr m_breaches
    end;
    st.in_breach <- burning;
    Mutex.unlock t.mu;
    newly

type report = {
  r_kind : string;
  r_latency_s : float;
  r_error_budget : float;
  total : int;
  violations : int;
  burn_rate : float;
  breaches : int;
  worst : (int * float) list;
}

let reports t =
  Mutex.lock t.mu;
  let rs =
    Hashtbl.fold
      (fun kind st acc ->
        {
          r_kind = kind;
          r_latency_s = st.objective.latency_s;
          r_error_budget = st.objective.error_budget;
          total = st.total;
          violations = st.violations;
          burn_rate = burn_rate_of st;
          breaches = st.breaches;
          worst = st.worst;
        }
        :: acc)
      t.classes []
  in
  Mutex.unlock t.mu;
  List.sort (fun a b -> compare a.r_kind b.r_kind) rs

let breached t = List.exists (fun r -> r.breaches > 0) (reports t)

let report_json t =
  let module J = Xsc_util.Json in
  let class_json r =
    J.Obj
      [
        ("kind", J.Str r.r_kind);
        ("latency_s", J.Num r.r_latency_s);
        ("error_budget", J.Num r.r_error_budget);
        ("total", J.int r.total);
        ("violations", J.int r.violations);
        ("budget_consumed", J.Num r.burn_rate);
        ("breaches", J.int r.breaches);
        ( "worst",
          J.List
            (List.map
               (fun (id, lat) -> J.Obj [ ("id", J.int id); ("latency_s", J.Num lat) ])
               r.worst) );
      ]
  in
  J.Obj
    [ ("breached", J.Bool (breached t)); ("classes", J.List (List.map class_json (reports t))) ]
