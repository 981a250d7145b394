(* The four traffic mixes and their pre-generated instances.

   Every instance and its oracle is built from the seed before any clock
   starts; requests cycle through the distinct instances. Oracles are
   [Route.direct] on the pre-generated payload, which is exactly what
   [Loadgen.reference_routed] computes (it regenerates the payload first,
   and an n=512 SPD instance costs ~1.2 s to generate). *)

open Xsc_serve

type loop =
  | Open  (** Poisson arrivals per class, merged in time order *)
  | Closed of int  (** this many requests outstanding *)

type cls = {
  load : Loadgen.config;  (** instance shape: [n], [kinds], [deadline_s] *)
  distinct : int;  (** distinct instances, cycled *)
  per_s : float;
      (** open loop: Poisson rate (req/s); closed loop: requests per second of
          run budget, so a run does a fixed amount of work *)
  traced_cap : int;
      (** requests of this class in each served part of the traced run,
          chosen so a traced server stays under the span collector's 65,536
          records *)
  replays : int;  (** direct-replay plans of this class in the traced run *)
}

type t = {
  name : string;
  loop : loop;
  classes : cls array;  (** [classes.(0)] is the primary class *)
  server : Xsc_serve.Server.config;  (** [spans] is set per run *)
  storm : Xsc_resilience.Harness.policy option;  (** seed replaced by the run seed *)
}

let small ~deadline_s ~per_s ~traced_cap =
  {
    load =
      {
        Loadgen.default with
        n = 48;
        kinds = [| Loadgen.Spd; Loadgen.General |];
        deadline_s;
      };
    distinct = 256;
    per_s;
    traced_cap;
    replays = 512;
  }

let all =
  [
    {
      name = "small-open";
      loop = Open;
      classes = [| small ~deadline_s:0.05 ~per_s:400.0 ~traced_cap:2000 |];
      server = Server.default_config;
      storm = None;
    };
    {
      name = "small-closed";
      loop = Closed 32;
      classes = [| small ~deadline_s:0.25 ~per_s:12000.0 ~traced_cap:2000 |];
      server = { Server.default_config with max_retries = 4 };
      storm = Some { Xsc_resilience.Harness.default with p_raise = 0.05 };
    };
    {
      name = "large-closed";
      loop = Closed 1;
      classes =
        [|
          {
            load =
              { Loadgen.default with n = 512; kinds = [| Loadgen.Spd |]; deadline_s = 1.0 };
            distinct = 2;
            per_s = 80.0;
            traced_cap = 300;
            replays = 40;
          };
        |];
      server = Server.default_config;
      storm = None;
    };
    {
      name = "mixed";
      loop = Open;
      classes =
        [|
          {
            (* the earlier BENCH_0010 production point; the traced cap spans
               the same 6 s as the sparse one *)
            (small ~deadline_s:0.25 ~per_s:150.0 ~traced_cap:900) with
            load = { Loadgen.default with n = 48; kinds = [| Loadgen.Spd |]; deadline_s = 0.25 };
            replays = 256;
          };
          {
            load =
              { Loadgen.default with n = 24; kinds = [| Loadgen.Cg |]; deadline_s = 5.0 };
            distinct = 8;
            per_s = 5.0;
            traced_cap = 30;
            replays = 8;
          };
        |];
      server =
        {
          Server.default_config with
          capacity = 512;
          default_deadline_s = 5.0;
          class_caps = [ ("cg", 1) ];
        };
      storm = None;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ---- instances ---- *)

type instance = { payload : Request.payload; oracle : Request.solution }

(* Requests of class [c] in a run of [seconds]: at least one. *)
let requests c ~seconds = max 1 (int_of_float (Float.round (c.per_s *. seconds)))

(* Only as many distinct instances as the run will send are generated, so
   a short smoke run does not pay for 256 instances; at any budget of a
   second or more every class uses all of its distinct instances. *)
let prepare w ~seed ~seconds =
  Array.mapi
    (fun ci c ->
      let count = min c.distinct (requests c ~seconds) in
      let load = { c.load with seed = seed + (7919 * ci); count; rate_hz = 1.0 } in
      Array.map
        (fun a ->
          let payload = Loadgen.payload_of load a in
          { payload; oracle = Route.direct payload })
        (Loadgen.schedule load))
    w.classes

(* ---- arrivals ---- *)

type arrival = {
  due_ns : int;  (** offset from the run's start; 0 in a closed loop *)
  cls : int;
  inst : int;  (** index into the class's prepared instances *)
}

(* The send sequence: per-class request counts from [count], Poisson times
   for an open loop (one independent stream per class, merged), instances
   cycled in order. Each open-loop stream is rescaled so its last arrival
   falls at [n / per_s]: the realised rate is then the nominal one on every
   seed, which keeps throughput and CPU per request comparable across
   seeds, while the gaps keep their Poisson shape. *)
let arrivals w ~seed ~(instances : instance array array) ~count =
  let per_class ci c =
    let n = count ci c in
    let distinct = Array.length instances.(ci) in
    match w.loop with
    | Closed _ -> Array.init n (fun i -> { due_ns = 0; cls = ci; inst = i mod distinct })
    | Open ->
      let sched =
        Loadgen.schedule
          { c.load with seed = seed + 1 + (104729 * ci); rate_hz = c.per_s; count = n }
      in
      let scale = float_of_int n /. c.per_s /. sched.(n - 1).Loadgen.at_s in
      Array.mapi
        (fun i (a : Loadgen.arrival) ->
          { due_ns = int_of_float (a.Loadgen.at_s *. scale *. 1e9); cls = ci; inst = i mod distinct })
        sched
  in
  let all = Array.concat (Array.to_list (Array.mapi per_class w.classes)) in
  Array.stable_sort (fun a b -> compare a.due_ns b.due_ns) all;
  all

let server_config w ~spans = { w.server with Server.spans }

let harness w ~seed =
  Option.map
    (fun p -> Xsc_resilience.Harness.create { p with Xsc_resilience.Harness.seed })
    w.storm
