(* The fleet simulator: the real serve policy pipeline running in
   discrete-event time over a simulated machine under a Poisson failure
   storm.

   Composition (the point of the module):
   - admission window / dynamic batching / EDF dispatch are the *actual*
     `lib/serve` structures — the polymorphic [Batcher] and [Scheduler]
     instantiated at simulated requests, with the same admission rule
     [Server.submit] applies (occupancy vs capacity);
   - nodes, the alpha-beta network and the failure process come from
     `lib/simmachine` ([Des], [Machine], [Failure]);
   - solve costs come from the `lib/ca` closed forms ([Model]);
   - a node failure mid-request walks the recovery lattice of
     `lib/resilience`: ABFT checksum repair < cone replay <
     checkpoint-restart at Young cadence < typed reject — cheapest rung
     that still meets the member's deadline, and reject when none can.

   Determinism: arrival times and failure times are drawn from seeded,
   split RNG streams in event order (the DES is FIFO-stable), and every
   per-failure decision (victim node, fault kind) is a pure hash of
   (seed, failure index) in the `Harness` discipline — no draw depends on
   simulation state, so a replayed storm makes bit-identical decisions.
   Batch formation is deterministic because [Batcher.flush_due] orders
   ties by class key, never by hash-table iteration. Two runs of the same
   config produce equal [records] arrays (float-bitwise) and equal
   [outcome_hash] fingerprints; the fleet bench gates on exactly that. *)

module Des = Xsc_simmachine.Des
module Failure = Xsc_simmachine.Failure
module Machine = Xsc_simmachine.Machine
module Rng = Xsc_util.Rng
module Stats = Xsc_util.Stats
module Batcher = Xsc_serve.Batcher
module Scheduler = Xsc_serve.Scheduler
module Metrics = Xsc_obs.Metrics
module Span = Xsc_obs.Span

type cadence =
  | Every_step
  | Young
  | Never
  | Every of int

type policy = {
  capacity : int;  (* admission window, as Server.config.capacity *)
  max_batch : int;
  linger_s : float;
  cadence : cadence;
  abft : bool;  (* keep checksums: pay per-step overhead, repair tiles *)
}

type faults = {
  p_tile : float;  (* busy-node failure is a single-tile corruption *)
  p_cone : float;  (* ... a wider corruption needing cone replay *)
  (* remaining mass: a hard rank loss (checkpoint-restart territory) *)
  repair_s : float;  (* downed node rejoins after this long *)
}

type config = {
  seed : int;
  machine : Machine.t;
  classes : Model.cls array;
  rate_hz : float;  (* offered Poisson arrival rate *)
  count : int;  (* offered requests *)
  policy : policy;
  faults : faults;
  spans : bool;  (* keep simulated span records (chrome-exportable) *)
}

type outcome =
  | Completed of { finish_s : float; on_time : bool; recoveries : int }
  | Rejected_admission
  | Rejected_recovery of { at_s : float; recoveries : int }

type record = {
  id : int;
  cls : string;
  arrive_s : float;
  deadline_s : float;  (* absolute *)
  outcome : outcome;
}

type counters = {
  mutable offered : int;
  mutable admitted : int;
  mutable rejected_admission : int;
  mutable completed : int;
  mutable on_time : int;
  mutable rejected_recovery : int;
  mutable batches : int;
  mutable checkpoints : int;
  mutable failures_total : int;
  mutable failures_idle : int;
      (* landed on a free node, a downed node, or an allocation draining
         a recovery tail with no member left to expose *)
  mutable failures_busy : int;  (* landed on an active allocation *)
  mutable abft_repairs : int;
  mutable cone_replays : int;
  mutable restarts : int;
  mutable reject_hits : int;  (* failures whose only surviving rung was reject *)
}

type result = {
  records : record array;
  counters : counters;
  makespan_s : float;
  goodput_rps : float;  (* on-time completions per simulated second *)
  availability : float;  (* on-time completions / offered *)
  p50_ms : float;
  p99_ms : float;
  util : float;  (* busy node-seconds / (nodes * makespan) *)
  young_by_class : (string * int) list;  (* cadence (steps) actually used *)
  failure_rate : float;  (* configured system failures/s *)
  empirical_failures : int;
  expected_failures : float;
  outcome_hash : int64;
  wedged : bool;  (* horizon hit before every request settled: a bug *)
  sim_spans : Span.record list;  (* simulated-time spans, origin 0 *)
}

(* ---- the Harness discipline: pure-hash per-failure decisions ---- *)

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 33)) 0xff51afd7ed558ccdL in
  let z = mul (logxor z (shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L in
  logxor z (shift_right_logical z 33)

let hash_fail ~seed ~index ~salt =
  mix64
    (Int64.add
       (mix64 (Int64.of_int seed))
       (Int64.add (Int64.mul (Int64.of_int index) 0x9e3779b97f4a7c15L) (Int64.of_int salt)))

let uniform_fail ~seed ~index ~salt =
  let bits = Int64.shift_right_logical (hash_fail ~seed ~index ~salt) 12 in
  Int64.to_float bits /. 4503599627370496.0 (* 2^52 *)

(* ---- replay fingerprint ---- *)

let hash_record acc (r : record) =
  let h = ref acc in
  let feed v = h := mix64 (Int64.add (Int64.mul !h 0x100000001b3L) v) in
  feed (Int64.of_int r.id);
  feed (Int64.bits_of_float r.arrive_s);
  (match r.outcome with
  | Completed { finish_s; on_time; recoveries } ->
    feed 1L;
    feed (Int64.bits_of_float finish_s);
    feed (if on_time then 1L else 0L);
    feed (Int64.of_int recoveries)
  | Rejected_admission -> feed 2L
  | Rejected_recovery { at_s; recoveries } ->
    feed 3L;
    feed (Int64.bits_of_float at_s);
    feed (Int64.of_int recoveries));
  !h

(* ---- metrics (tallied once per run) ---- *)

let m_offered = Metrics.counter "fleet.offered"
let m_completed = Metrics.counter "fleet.completed"
let m_failures = Metrics.counter "fleet.failures_injected"
let m_abft = Metrics.counter "fleet.abft_repairs"
let m_cone = Metrics.counter "fleet.cone_replays"
let m_restart = Metrics.counter "fleet.restarts"
let m_reject = Metrics.counter "fleet.recovery_rejects"
let m_latency = Metrics.histogram "fleet.latency_s"

(* ---- simulated requests ---- *)

type sreq = {
  sr_id : int;
  sr_cls : int;
  sr_arrive_s : float;
  sr_deadline_s : float;  (* absolute *)
  mutable sr_recoveries : int;
}

type seg_kind =
  | Setup
  | Step of { ck : bool }  (* a checkpoint write rides this segment *)

type alloc = {
  a_id : int;
  a_cls : int;
  a_batch : sreq Batcher.batch;
  mutable a_nodes : int list;
  mutable a_member : int;  (* index of the member currently running *)
  mutable a_step : int;  (* completed steps of the current member *)
  mutable a_last_ck : int;
  mutable a_epoch : int;  (* invalidates in-flight segment events *)
  mutable a_seg_end : float;
  mutable a_seg_kind : seg_kind;
  a_started : float;
}

let fresh_counters () =
  {
    offered = 0;
    admitted = 0;
    rejected_admission = 0;
    completed = 0;
    on_time = 0;
    rejected_recovery = 0;
    batches = 0;
    checkpoints = 0;
    failures_total = 0;
    failures_idle = 0;
    failures_busy = 0;
    abft_repairs = 0;
    cone_replays = 0;
    restarts = 0;
    reject_hits = 0;
  }

let ns_of s = int_of_float (s *. 1e9)

let validate cfg =
  if cfg.count < 1 then invalid_arg "Fleet.Sim: count must be >= 1";
  if cfg.rate_hz <= 0.0 then invalid_arg "Fleet.Sim: rate_hz must be positive";
  if cfg.policy.capacity < 1 then invalid_arg "Fleet.Sim: capacity must be >= 1";
  if cfg.policy.max_batch < 1 then invalid_arg "Fleet.Sim: max_batch must be >= 1";
  if cfg.policy.linger_s < 0.0 then invalid_arg "Fleet.Sim: linger must be >= 0";
  (match cfg.policy.cadence with
  | Every k when k < 1 -> invalid_arg "Fleet.Sim: cadence Every k needs k >= 1"
  | _ -> ());
  if Array.length cfg.classes = 0 then invalid_arg "Fleet.Sim: no request classes";
  Array.iter
    (fun c ->
      Model.validate c;
      if c.Model.ranks > cfg.machine.Machine.node_count then
        invalid_arg
          (Printf.sprintf "Fleet.Sim: class %s needs %d ranks > %d nodes" c.Model.name
             c.Model.ranks cfg.machine.Machine.node_count))
    cfg.classes;
  let f = cfg.faults in
  if f.p_tile < 0.0 || f.p_cone < 0.0 || f.p_tile +. f.p_cone > 1.0 then
    invalid_arg "Fleet.Sim: fault split must be probabilities summing <= 1";
  if f.repair_s <= 0.0 then invalid_arg "Fleet.Sim: repair_s must be positive"

let cadence_steps cfg cls (costs : Model.costs) =
  match cfg.policy.cadence with
  | Every_step -> 1
  | Never -> max_int
  | Every k -> k
  | Young -> Model.young_steps ~machine:cfg.machine cls ~costs

let run cfg =
  validate cfg;
  let machine = cfg.machine in
  let nodes = machine.Machine.node_count in
  let ncls = Array.length cfg.classes in
  let costs = Array.map (fun c -> Model.costs ~machine c) cfg.classes in
  let cadence = Array.init ncls (fun i -> cadence_steps cfg cfg.classes.(i) costs.(i)) in
  let eff_step i =
    costs.(i).Model.step_s
    *. (if cfg.policy.abft then costs.(i).Model.abft_step_factor else 1.0)
  in
  (* stream split order is part of the seed contract — do not reorder *)
  let root = Rng.create cfg.seed in
  let rng_arrive = Rng.split root in
  let rng_fail = Rng.split root in
  let fail_proc = Failure.of_machine rng_fail machine in
  let des = Des.create () in
  let c = fresh_counters () in
  let records = Array.make cfg.count None in
  let cls_index = Hashtbl.create 8 in
  Array.iteri (fun i cl -> Hashtbl.replace cls_index cl.Model.name i) cfg.classes;

  (* node ownership: -1 free, -2 down, >= 0 the allocation id *)
  let owner = Array.make nodes (-1) in
  let free = ref nodes in
  let allocs : (int, alloc) Hashtbl.t = Hashtbl.create 64 in
  let next_alloc = ref 0 in
  let busy_node_s = ref 0.0 in

  let in_system = ref 0 in
  let settled = ref 0 in
  let done_ = ref false in
  let sim_spans = ref [] in

  let batcher =
    Batcher.create_keyed
      ~classify:(fun r -> cfg.classes.(r.sr_cls).Model.name)
      ~deadline_of:(fun r -> ns_of r.sr_deadline_s)
      { Batcher.max_batch = cfg.policy.max_batch; linger_ns = ns_of cfg.policy.linger_s }
  in
  let sched : sreq Scheduler.t = Scheduler.create () in

  let note_span ~request ~phase ~name ~lane ~attempt ~start_s ~finish_s =
    if cfg.spans then
      sim_spans :=
        {
          Span.request;
          span = Span.fresh_id ();
          parent = -1;
          phase;
          name;
          lane;
          attempt;
          start_ns = ns_of start_s;
          finish_ns = ns_of finish_s;
        }
        :: !sim_spans
  in

  let settle (r : sreq) outcome =
    let cls = cfg.classes.(r.sr_cls) in
    records.(r.sr_id) <-
      Some
        {
          id = r.sr_id;
          cls = cls.Model.name;
          arrive_s = r.sr_arrive_s;
          deadline_s = r.sr_deadline_s;
          outcome;
        };
    (match outcome with
    | Rejected_admission -> ()
    | _ ->
      decr in_system;
      note_span ~request:r.sr_id ~phase:"request" ~name:cls.Model.name ~lane:(-1)
        ~attempt:r.sr_recoveries ~start_s:r.sr_arrive_s
        ~finish_s:
          (match outcome with
          | Completed { finish_s; _ } -> finish_s
          | Rejected_recovery { at_s; _ } -> at_s
          | Rejected_admission -> r.sr_arrive_s));
    incr settled;
    if !settled = cfg.count then begin
      done_ := true;
      Des.stop des
    end
  in

  (* ---- dispatch ---- *)

  let rec try_dispatch () =
    if not !done_ then begin
      match Scheduler.pop sched with
      | None -> ()
      | Some b ->
        let ci = Hashtbl.find cls_index b.Batcher.class_key in
        let ranks = cfg.classes.(ci).Model.ranks in
        if !free < ranks then
          (* head-of-line blocking, deliberately: the earliest deadline
             waits for nodes even when a smaller batch behind could have
             squeezed in — push it back, keeping its EDF position *)
          Scheduler.push sched b
        else begin
          let taken = ref [] and need = ref ranks in
          let a_id = !next_alloc in
          incr next_alloc;
          Array.iteri
            (fun i o ->
              if !need > 0 && o = -1 then begin
                owner.(i) <- a_id;
                taken := i :: !taken;
                decr need
              end)
            owner;
          free := !free - ranks;
          c.batches <- c.batches + 1;
          let now = Des.now des in
          let a =
            {
              a_id;
              a_cls = ci;
              a_batch = b;
              a_nodes = !taken;
              a_member = 0;
              a_step = 0;
              a_last_ck = 0;
              a_epoch = 0;
              a_seg_end = now;
              a_seg_kind = Setup;
              a_started = now;
            }
          in
          Hashtbl.replace allocs a_id a;
          start_segment a Setup ~dur:costs.(ci).Model.setup_s;
          try_dispatch ()
        end
    end

  and start_segment a kind ~dur =
    a.a_epoch <- a.a_epoch + 1;
    let epoch = a.a_epoch in
    a.a_seg_kind <- kind;
    a.a_seg_end <- Des.now des +. dur;
    Des.schedule_after des dur (fun () ->
        if (not !done_) && a.a_epoch = epoch && Hashtbl.mem allocs a.a_id then
          segment_done a)

  and next_step_segment a =
    let ci = a.a_cls in
    let next = a.a_step + 1 in
    let ck =
      cadence.(ci) <> max_int
      && next < costs.(ci).Model.steps
      && next mod cadence.(ci) = 0
    in
    let dur = eff_step ci +. (if ck then costs.(ci).Model.checkpoint_s else 0.0) in
    start_segment a (Step { ck }) ~dur

  and segment_done a =
    let ci = a.a_cls in
    match a.a_seg_kind with
    | Setup ->
      (* a [Setup] segment also fronts restart delays between members, so
         it must not reset [a_member] *)
      a.a_step <- 0;
      a.a_last_ck <- 0;
      next_step_segment a
    | Step { ck } ->
      a.a_step <- a.a_step + 1;
      if ck then begin
        a.a_last_ck <- a.a_step;
        c.checkpoints <- c.checkpoints + 1
      end;
      if a.a_step >= costs.(ci).Model.steps then begin
        (* member finished *)
        let r = a.a_batch.Batcher.requests.(a.a_member) in
        let now = Des.now des in
        let on_time = now <= r.sr_deadline_s in
        c.completed <- c.completed + 1;
        if on_time then c.on_time <- c.on_time + 1;
        settle r (Completed { finish_s = now; on_time; recoveries = r.sr_recoveries });
        advance_member a
      end
      else next_step_segment a

  and advance_member a =
    a.a_member <- a.a_member + 1;
    if a.a_member >= Array.length a.a_batch.Batcher.requests then free_alloc a
    else begin
      a.a_step <- 0;
      a.a_last_ck <- 0;
      next_step_segment a
    end

  and free_alloc a =
    let now = Des.now des in
    busy_node_s :=
      !busy_node_s +. (float_of_int (List.length a.a_nodes) *. (now -. a.a_started));
    List.iter
      (fun v ->
        owner.(v) <- -1;
        incr free)
      a.a_nodes;
    a.a_epoch <- a.a_epoch + 1;
    Hashtbl.remove allocs a.a_id;
    try_dispatch ()
  in

  (* ---- the recovery lattice ---- *)

  (* Expected remaining service time of the current member if recovery
     succeeds: steps left at the effective step rate plus the checkpoint
     writes the cadence will interleave. *)
  let remaining_after a ~from_step =
    let ci = a.a_cls in
    let steps = costs.(ci).Model.steps in
    let left = steps - from_step in
    let cks =
      if cadence.(ci) = max_int then 0
      else max 0 (((steps - 1) / cadence.(ci)) - (from_step / cadence.(ci)))
    in
    (float_of_int left *. eff_step ci)
    +. (float_of_int cks *. costs.(ci).Model.checkpoint_s)
  in

  let on_busy_failure a ~victim ~findex =
    let ci = a.a_cls in
    let now = Des.now des in
    let r = a.a_batch.Batcher.requests.(a.a_member) in
    let remaining_seg = Float.max 0.0 (a.a_seg_end -. now) in
    let u = uniform_fail ~seed:cfg.seed ~index:findex ~salt:1 in
    (* the rungs, cheapest first; a tile hit without checksums escalates
       to cone replay (nothing cheaper can see it) *)
    let kind =
      if u < cfg.faults.p_tile then if cfg.policy.abft then `Tile else `Cone
      else if u < cfg.faults.p_tile +. cfg.faults.p_cone then `Cone
      else `Hard
    in
    (* hard failures take the node down whatever the verdict on the
       request; replace from spares when possible, else hold the failed
       node through its own repair *)
    let hard_extra =
      match kind with
      | `Hard ->
        let spare = ref (-1) in
        Array.iteri (fun i o -> if !spare < 0 && o = -1 then spare := i) owner;
        if !spare >= 0 then begin
          owner.(!spare) <- a.a_id;
          decr free;
          a.a_nodes <- !spare :: List.filter (fun n -> n <> victim) a.a_nodes;
          owner.(victim) <- -2;
          Des.schedule_after des cfg.faults.repair_s (fun () ->
              if owner.(victim) = -2 then begin
                owner.(victim) <- -1;
                incr free;
                try_dispatch ()
              end);
          0.0
        end
        else
          (* no spare: the allocation keeps its dead rank and waits out
             the repair — ownership is conserved, the price is time *)
          cfg.faults.repair_s
      | `Tile | `Cone -> 0.0
    in
    let setup_phase = a.a_seg_kind = Setup in
    let proj_after cost ~rollback_to =
      if setup_phase then now +. cost +. remaining_seg +. remaining_after a ~from_step:0
      else
        match rollback_to with
        | None -> now +. cost +. remaining_seg +. remaining_after a ~from_step:a.a_step
        | Some k -> now +. cost +. remaining_after a ~from_step:k
    in
    let rung, cost, rollback =
      match kind with
      | `Tile -> (`Abft, costs.(ci).Model.abft_repair_s, None)
      | `Cone -> (`Cone, costs.(ci).Model.cone_replay_s, None)
      | `Hard ->
        ( `Restart,
          costs.(ci).Model.restart_s +. hard_extra,
          Some (if setup_phase then 0 else a.a_last_ck) )
    in
    let projected = proj_after cost ~rollback_to:rollback in
    if projected > r.sr_deadline_s then begin
      (* no rung gets this member home: typed reject, lattice floor *)
      c.reject_hits <- c.reject_hits + 1;
      c.rejected_recovery <- c.rejected_recovery + 1;
      note_span ~request:r.sr_id ~phase:"recover" ~name:"reject" ~lane:a.a_id
        ~attempt:findex ~start_s:now ~finish_s:now;
      settle r (Rejected_recovery { at_s = now; recoveries = r.sr_recoveries });
      (* the allocation moves on to its next member; a hard loss still
         pays the restart before anything else runs on it *)
      let delay = match rung with `Restart -> cost | `Abft | `Cone -> 0.0 in
      a.a_member <- a.a_member + 1;
      if a.a_member >= Array.length a.a_batch.Batcher.requests then
        if delay = 0.0 then free_alloc a
        else begin
          a.a_epoch <- a.a_epoch + 1;
          let epoch = a.a_epoch in
          Des.schedule_after des delay (fun () ->
              if (not !done_) && a.a_epoch = epoch && Hashtbl.mem allocs a.a_id then
                free_alloc a)
        end
      else begin
        a.a_step <- 0;
        a.a_last_ck <- 0;
        if delay = 0.0 then next_step_segment a
        else start_segment a Setup ~dur:delay
      end
    end
    else begin
      r.sr_recoveries <- r.sr_recoveries + 1;
      match rung with
      | `Abft ->
        c.abft_repairs <- c.abft_repairs + 1;
        note_span ~request:r.sr_id ~phase:"recover" ~name:"abft" ~lane:a.a_id
          ~attempt:findex ~start_s:now ~finish_s:(now +. cost);
        (* checksum repair in place, then the interrupted segment resumes *)
        start_segment a a.a_seg_kind ~dur:(cost +. remaining_seg)
      | `Cone ->
        c.cone_replays <- c.cone_replays + 1;
        note_span ~request:r.sr_id ~phase:"recover" ~name:"cone" ~lane:a.a_id
          ~attempt:findex ~start_s:now ~finish_s:(now +. cost);
        start_segment a a.a_seg_kind ~dur:(cost +. remaining_seg)
      | `Restart ->
        c.restarts <- c.restarts + 1;
        note_span ~request:r.sr_id ~phase:"recover" ~name:"restart" ~lane:a.a_id
          ~attempt:findex ~start_s:now ~finish_s:(now +. cost);
        if setup_phase then start_segment a Setup ~dur:(cost +. remaining_seg)
        else begin
          a.a_step <- a.a_last_ck;
          (* the restart pays its cost, then the step segment re-runs *)
          let ck_next =
            cadence.(ci) <> max_int
            && a.a_step + 1 < costs.(ci).Model.steps
            && (a.a_step + 1) mod cadence.(ci) = 0
          in
          let dur =
            cost +. eff_step ci
            +. (if ck_next then costs.(ci).Model.checkpoint_s else 0.0)
          in
          start_segment a (Step { ck = ck_next }) ~dur
        end
    end
  in

  (* ---- failure storm ---- *)

  let findex = ref 0 in
  let rec arm_failure () =
    if not !done_ then begin
      let t = Failure.next_after fail_proc (Des.now des) in
      Des.schedule des t (fun () ->
          if not !done_ then begin
            let i = !findex in
            incr findex;
            c.failures_total <- c.failures_total + 1;
            let victim =
              Int64.to_int
                (Int64.rem
                   (Int64.shift_right_logical (hash_fail ~seed:cfg.seed ~index:i ~salt:0) 1)
                   (Int64.of_int nodes))
            in
            (match owner.(victim) with
            | -1 ->
              c.failures_idle <- c.failures_idle + 1;
              owner.(victim) <- -2;
              decr free;
              Des.schedule_after des cfg.faults.repair_s (fun () ->
                  if owner.(victim) = -2 then begin
                    owner.(victim) <- -1;
                    incr free;
                    try_dispatch ()
                  end)
            | -2 -> c.failures_idle <- c.failures_idle + 1
            | a_id -> (
              match Hashtbl.find_opt allocs a_id with
              | Some a when a.a_member >= Array.length a.a_batch.Batcher.requests ->
                (* the allocation is draining a recovery tail after its
                   last member settled: no request is exposed *)
                c.failures_idle <- c.failures_idle + 1
              | Some a ->
                c.failures_busy <- c.failures_busy + 1;
                on_busy_failure a ~victim ~findex:i
              | None ->
                (* ownership says busy but the allocation is gone: a
                   bookkeeping bug — make it loud *)
                failwith "Fleet.Sim: node owned by a freed allocation"));
            arm_failure ()
          end)
    end
  in
  arm_failure ();

  (* ---- offered load ---- *)

  let total_weight = Array.fold_left (fun s cl -> s +. cl.Model.weight) 0.0 cfg.classes in
  let t = ref 0.0 in
  for id = 0 to cfg.count - 1 do
    t := !t +. Rng.exponential rng_arrive cfg.rate_hz;
    let u = Rng.uniform rng_arrive *. total_weight in
    let ci =
      let acc = ref 0.0 and pick = ref (ncls - 1) in
      (try
         Array.iteri
           (fun i cl ->
             acc := !acc +. cl.Model.weight;
             if u < !acc then begin
               pick := i;
               raise Exit
             end)
           cfg.classes
       with Exit -> ());
      !pick
    in
    let arrive = !t in
    Des.schedule des arrive (fun () ->
        c.offered <- c.offered + 1;
        if !in_system >= cfg.policy.capacity then begin
          c.rejected_admission <- c.rejected_admission + 1;
          let r =
            {
              sr_id = id;
              sr_cls = ci;
              sr_arrive_s = arrive;
              sr_deadline_s = arrive +. cfg.classes.(ci).Model.deadline_s;
              sr_recoveries = 0;
            }
          in
          settle r Rejected_admission
        end
        else begin
          incr in_system;
          c.admitted <- c.admitted + 1;
          let r =
            {
              sr_id = id;
              sr_cls = ci;
              sr_arrive_s = arrive;
              sr_deadline_s = arrive +. cfg.classes.(ci).Model.deadline_s;
              sr_recoveries = 0;
            }
          in
          let now_ns = ns_of arrive in
          (match Batcher.add batcher ~now_ns r with
          | Some b ->
            Scheduler.push sched b;
            try_dispatch ()
          | None -> ());
          (* time-triggered flush: one event per add keeps the calendar
             small and bounds any slot's wait by the linger *)
          Des.schedule_after des cfg.policy.linger_s (fun () ->
              if not !done_ then begin
                let flushed = Batcher.flush_due batcher ~now_ns:(ns_of (Des.now des)) in
                List.iter (Scheduler.push sched) flushed;
                if flushed <> [] then try_dispatch ()
              end)
        end)
  done;

  (* generous horizon: if the sim wedges we return with [wedged] set
     rather than spinning the failure process forever *)
  let horizon = (!t +. 1.0) *. 1000.0 in
  let final = Des.run ~until:horizon des in
  let wedged = !settled < cfg.count in
  let makespan = final in

  let records =
    Array.mapi
      (fun i r ->
        match r with
        | Some r -> r
        | None ->
          if wedged then
            {
              id = i;
              cls = "?";
              arrive_s = 0.0;
              deadline_s = 0.0;
              outcome = Rejected_recovery { at_s = -1.0; recoveries = 0 };
            }
          else failwith "Fleet.Sim: unsettled request after clean run")
      records
  in
  let latencies =
    Array.to_list records
    |> List.filter_map (fun r ->
           match r.outcome with
           | Completed { finish_s; _ } -> Some ((finish_s -. r.arrive_s) *. 1e3)
           | _ -> None)
    |> Array.of_list
  in
  let pct p = if Array.length latencies = 0 then 0.0 else Stats.percentile latencies p in
  let outcome_hash = Array.fold_left hash_record 0xcbf29ce484222325L records in
  Metrics.add m_offered c.offered;
  Metrics.add m_completed c.completed;
  Metrics.add m_failures c.failures_total;
  Metrics.add m_abft c.abft_repairs;
  Metrics.add m_cone c.cone_replays;
  Metrics.add m_restart c.restarts;
  Metrics.add m_reject c.reject_hits;
  Array.iter (fun l -> Metrics.observe m_latency (l /. 1e3)) latencies;
  {
    records;
    counters = c;
    makespan_s = makespan;
    goodput_rps = (if makespan > 0.0 then float_of_int c.on_time /. makespan else 0.0);
    availability = float_of_int c.on_time /. float_of_int cfg.count;
    p50_ms = pct 50.0;
    p99_ms = pct 99.0;
    util =
      (if makespan > 0.0 then !busy_node_s /. (float_of_int nodes *. makespan) else 0.0);
    young_by_class =
      Array.to_list
        (Array.mapi
           (fun i cl ->
             (cl.Model.name, if cadence.(i) = max_int then 0 else cadence.(i)))
           cfg.classes);
    failure_rate = Failure.rate fail_proc;
    empirical_failures = c.failures_total;
    expected_failures = Failure.rate fail_proc *. makespan;
    outcome_hash;
    wedged;
    sim_spans = List.rev !sim_spans;
  }

(* The recovery-lattice accounting identity, gate (d) of the fleet bench:
   every injected failure lands in exactly one bucket. *)
let reconciles (c : counters) =
  c.failures_total = c.failures_idle + c.failures_busy
  && c.failures_busy = c.abft_repairs + c.cone_replays + c.restarts + c.reject_hits
  && c.reject_hits = c.rejected_recovery
  && c.offered = c.admitted + c.rejected_admission
  && c.admitted = c.completed + c.rejected_recovery

let summary_fields (cfg : config) (r : result) =
  let module J = Xsc_util.Json in
  let c = r.counters in
  [
    ("seed", J.int cfg.seed);
    ("nodes", J.int cfg.machine.Machine.node_count);
    ("node_mtbf_s", J.Num cfg.machine.Machine.node_mtbf);
    ("system_mtbf_s", J.Num (Machine.system_mtbf cfg.machine));
    ("rate_hz", J.Num cfg.rate_hz);
    ("offered", J.int c.offered);
    ("availability", J.Num r.availability);
    ("goodput_rps", J.Num r.goodput_rps);
    ("p50_ms", J.Num r.p50_ms);
    ("p99_ms", J.Num r.p99_ms);
    ("util", J.Num r.util);
    ("makespan_s", J.Num r.makespan_s);
    ("failures", J.int c.failures_total);
    ("failures_busy", J.int c.failures_busy);
    ("abft_repairs", J.int c.abft_repairs);
    ("cone_replays", J.int c.cone_replays);
    ("restarts", J.int c.restarts);
    ("recovery_rejects", J.int c.rejected_recovery);
    ("admission_rejects", J.int c.rejected_admission);
    ("checkpoints", J.int c.checkpoints);
    ("batches", J.int c.batches);
    ("expected_failures", J.Num r.expected_failures);
    ("outcome_hash", J.Str (Printf.sprintf "%Lx" r.outcome_hash));
    ("reconciles", J.Bool (reconciles c));
    ("wedged", J.Bool r.wedged);
  ]
