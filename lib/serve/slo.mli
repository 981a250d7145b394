(** Per-class SLO monitors: latency targets with error budgets, tracked
    as burn rates.

    An {!objective} declares, per request kind, the latency a completed
    request should beat and the fraction of requests allowed to miss it
    (the error budget). Every completion feeds {!observe}; a request
    {e violates} when it failed or finished over target. The burn rate is
    [(violations/total) / error_budget]: 1.0 means the class consumes its
    budget exactly as fast as allowed, above 1.0 the class is in breach —
    the classic SRE burn-rate alarm evaluated over the run window.

    Violations and breach entries are also counted on the
    [serve.slo.violations] / [serve.slo.breaches] metrics, and the worst
    offender request ids are retained per class so a tripped monitor in a
    bench record names concrete requests to go look at (in the flight
    recorder, via their span chains). *)

type objective = {
  kind : string;  (** ["spd"], ["lu"], ["gemm"], or ["*"] for any kind *)
  latency_s : float;  (** per-request total-latency target *)
  error_budget : float;  (** allowed violating fraction, in (0,1] *)
}

type t

val create : objective list -> t
(** First matching objective wins ([kind] equal, or ["*"]); kinds with no
    objective are not monitored. Raises [Invalid_argument] on a
    non-positive latency or a budget outside (0,1]. *)

val observe : t -> kind:string -> id:int -> latency_s:float -> failed:bool -> bool
(** Feed one completion. Returns [true] when this observation {e newly}
    pushed the class over a burn rate of 1.0 — the edge on which callers
    trigger a flight-recorder dump. Thread-safe. *)

type report = {
  r_kind : string;
  r_latency_s : float;
  r_error_budget : float;
  total : int;
  violations : int;
  burn_rate : float;  (** [(violations/total) / error_budget]; > 1.0 = in breach *)
  breaches : int;  (** times the class entered breach *)
  worst : (int * float) list;  (** worst offender [(request id, latency_s)], worst first *)
}

val reports : t -> report list
(** One report per observed class, sorted by kind. *)

val breached : t -> bool
(** True when any class has ever entered breach. *)

val report_json : t -> Xsc_util.Json.t
(** The [serve.slo] record:
    [{"breached": ..., "classes": [{kind, latency_s, error_budget, total,
    violations, budget_consumed, breaches, worst: [{id, latency_s}]}]}]. *)
