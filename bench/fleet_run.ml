(* Fleet capacity-planning benchmark (`bench/main.exe --fleet FILE`): the
   BENCH_0009 record.

   Sweeps the fleet simulator (Xsc_fleet.Sim — the real serve
   batching/EDF/admission structures in DES time over a simulated machine
   with a Poisson failure injector and the lib/ca cost models) across the
   paper's regime: ~1000 nodes, offered load near capacity, system MTBF
   far shorter than one large solve. Produces:

   - an availability/goodput/p99 curve vs node MTBF (the storm knob);
   - a weak-scaling curve vs node count (offered load scaled with nodes);
   - a policy-comparison table: admission window x batch size x
     checkpoint cadence at the storm point;
   - a seeded-replay check and the recovery-lattice reconciliation.

   Self-checking: exits 1 unless
   (a) availability degrades monotonically in expectation as MTBF shrinks
       at fixed policy (averaged over seeds);
   (b) the Young cadence beats both checkpoint-every-step and
       never-checkpoint on goodput in the short-MTBF regime;
   (c) a replayed storm reproduces identical request outcomes — bitwise
       equal records, equal outcome hash;
   (d) recovery-lattice counters reconcile on every run (each injected
       failure in exactly one of abft/cone/restart/reject, each request
       in exactly one outcome), and the Young cadence used is the one
       sqrt(2CM) prescribes for the Failure process's MTBF, with the
       empirical failure count within tolerance of rate x makespan.

   A failing gate dumps the replay storm's simulated spans as a flight
   recorder file next to the record. The record goes out through
   Bench_json.write_json, which closes the file on any exception, so a
   failing gate or a full disk never leaks a handle. *)

module Sim = Xsc_fleet.Sim
module Model = Xsc_fleet.Model
module Machine = Xsc_simmachine.Machine
module Network = Xsc_simmachine.Network
module Presets = Xsc_simmachine.Presets
module Failure = Xsc_simmachine.Failure
module Checkpoint = Xsc_resilience.Checkpoint
module Flight = Xsc_resilience.Flight
module Rng = Xsc_util.Rng
module Mat = Xsc_linalg.Mat
module Dist_cholesky = Xsc_ca.Dist_cholesky
module Summa = Xsc_ca.Summa

module Scenario = Xsc_fleet.Scenario
module Json = Xsc_util.Json

let fleet_machine ~nodes ~node_mtbf = Scenario.machine ~nodes ~node_mtbf

(* Two request classes (Scenario.default_classes): a 16-rank distributed
   Cholesky whose per-rank checkpoint costs about one step (the cadence
   choice has teeth: at the storm point the allocation's MTBF is shorter
   than one solve), and a shorter 16-rank SUMMA filling the mix. *)
let classes = Scenario.default_classes

type params = {
  nodes : int;
  count : int;
  rate_hz : float;
  seeds : int list;
  mtbf_sweep : float list;  (* node MTBF, longest first *)
  mtbf_storm : float;  (* collapse point: repair can't keep up *)
  mtbf_cadence : float;
  (* short-MTBF but pre-collapse: allocation MTBF shorter than one
     solve, queues finite — where checkpoint-cadence economics decide
     outcomes rather than the admission queue *)
  scaling_nodes : int list;
  capacities : int list;
  batches : int list;
}

let full =
  {
    nodes = 1000;
    count = 400;
    rate_hz = 1.25;
    seeds = [ 1; 2; 3 ];
    mtbf_sweep = [ 30.0 *. 86400.0; 3600.0; 400.0 ];
    mtbf_storm = 400.0;
    mtbf_cadence = 1000.0;
    scaling_nodes = [ 250; 1000; 4000 ];
    capacities = [ 64; 256 ];
    batches = [ 1; 4 ];
  }

let smoke_params =
  {
    nodes = 400;
    count = 120;
    rate_hz = 0.5;
    seeds = [ 1; 2 ];
    mtbf_sweep = [ 30.0 *. 86400.0; 3600.0; 400.0 ];
    mtbf_storm = 400.0;
    mtbf_cadence = 1000.0;
    scaling_nodes = [ 250; 400 ];
    capacities = [ 256 ];
    batches = [ 1; 4 ];
  }

let mk_config ?cadence ?abft ?capacity ?max_batch ?(spans = false) ?rate_hz
    ?nodes ~p ~mtbf ~seed () =
  let nodes = match nodes with Some n -> n | None -> p.nodes in
  let rate_hz = match rate_hz with Some r -> r | None -> p.rate_hz in
  Scenario.config ?cadence ?abft ?capacity ?max_batch ~spans ~nodes
    ~node_mtbf:mtbf ~rate_hz ~count:p.count ~seed ()

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Every run feeds gate (d): lattice reconciliation, a clean finish, and
   the Poisson injector delivering its advertised rate (empirical failure
   count within tolerance of rate x makespan, once enough events). *)
let all_sound = ref true

let sound (r : Sim.result) =
  let injector_ok =
    r.Sim.expected_failures < 20.0
    || Float.abs (float_of_int r.Sim.empirical_failures -. r.Sim.expected_failures)
       <= Float.max 10.0 (0.35 *. r.Sim.expected_failures)
  in
  let ok = Sim.reconciles r.Sim.counters && (not r.Sim.wedged) && injector_ok in
  if not ok then all_sound := false;
  ok

let run_one ?(label = "") cfg =
  let r = Sim.run cfg in
  ignore (sound r);
  (r, Json.Obj (("label", Json.Str label) :: Sim.summary_fields cfg r))

(* ---- gate (a): availability vs MTBF, monotone in expectation ---- *)

let mtbf_sweep ~p =
  let pts =
    List.map
      (fun mtbf ->
        let runs =
          List.map
            (fun seed ->
              run_one ~label:(Printf.sprintf "mtbf=%.0fs" mtbf)
                (mk_config ~p ~mtbf ~seed ()))
            p.seeds
        in
        let avail = mean (List.map (fun (r, _) -> r.Sim.availability) runs) in
        (mtbf, avail, runs))
      p.mtbf_sweep
  in
  (* adjacent points may tie within noise; the endpoints must strictly
     degrade — that is the curve the paper's arithmetic predicts *)
  let rec adjacent_ok = function
    | (_, a1, _) :: ((_, a2, _) :: _ as tl) -> a1 >= a2 -. 0.02 && adjacent_ok tl
    | _ -> true
  in
  let avail_of i = match List.nth pts i with _, a, _ -> a in
  let gate_a =
    adjacent_ok pts && avail_of 0 > avail_of (List.length pts - 1) +. 0.02
  in
  let json =
    Json.Obj
      [
        ( "points",
          Json.List
            (List.map
               (fun (mtbf, avail, runs) ->
                 Json.Obj
                   [
                     ("node_mtbf_s", Json.Num mtbf);
                     ("availability_mean", Json.Num avail);
                     ("runs", Json.List (List.map snd runs));
                   ])
               pts) );
        ("monotone", Json.Bool gate_a);
      ]
  in
  (gate_a, json)

(* ---- gate (b): cadence comparison at the storm point ---- *)

let cadence_name = function
  | Sim.Every_step -> "every-step"
  | Sim.Young -> "young"
  | Sim.Never -> "never"
  | Sim.Every k -> Printf.sprintf "every-%d" k

let cadence_compare ~p =
  let arms =
    List.map
      (fun cadence ->
        let runs =
          List.map
            (fun seed ->
              run_one
                ~label:(Printf.sprintf "cadence=%s" (cadence_name cadence))
                (mk_config ~p ~cadence ~mtbf:p.mtbf_cadence ~seed ()))
            p.seeds
        in
        let good = mean (List.map (fun (r, _) -> r.Sim.goodput_rps) runs) in
        (cadence, good, runs))
      [ Sim.Every_step; Sim.Young; Sim.Never ]
  in
  let good_of c =
    match List.find (fun (c', _, _) -> c' = c) arms with _, g, _ -> g
  in
  let gate_b =
    good_of Sim.Young > good_of Sim.Every_step && good_of Sim.Young > good_of Sim.Never
  in
  let json =
    Json.Obj
      [
        ( "arms",
          Json.List
            (List.map
               (fun (c, g, runs) ->
                 Json.Obj
                   [
                     ("cadence", Json.Str (cadence_name c));
                     ("goodput_mean_rps", Json.Num g);
                     ("runs", Json.List (List.map snd runs));
                   ])
               arms) );
        ("young_wins", Json.Bool gate_b);
      ]
  in
  (gate_b, json, arms)

(* ---- gate (c): seeded storm replay ---- *)

let replay ~p =
  (* spans on: a failing gate dumps the simulated spans as the post-mortem *)
  let cfg = mk_config ~p ~mtbf:p.mtbf_storm ~seed:7 ~spans:true () in
  let r1, j1 = run_one ~label:"replay-a" cfg in
  let r2, _ = run_one ~label:"replay-b" cfg in
  let bitwise =
    Array.length r1.Sim.records = Array.length r2.Sim.records
    && Array.for_all2 (fun (a : Sim.record) b -> a = b) r1.Sim.records r2.Sim.records
  in
  let gate_c = bitwise && Int64.equal r1.Sim.outcome_hash r2.Sim.outcome_hash in
  let rejects r =
    Array.to_list r.Sim.records
    |> List.filter_map (fun (rec_ : Sim.record) ->
           match rec_.Sim.outcome with
           | Sim.Rejected_recovery _ -> Some rec_.Sim.id
           | _ -> None)
  in
  let same_rejects = rejects r1 = rejects r2 in
  let hash r = Json.Str (Printf.sprintf "%Lx" r.Sim.outcome_hash) in
  let json =
    Json.Obj
      [
        ("run", j1);
        ("hash_a", hash r1);
        ("hash_b", hash r2);
        ("records_bitwise_equal", Json.Bool bitwise);
        ("typed_reject_set_equal", Json.Bool same_rejects);
        ("sim_spans", Json.int (List.length r1.Sim.sim_spans));
      ]
  in
  (gate_c && same_rejects, json, r1.Sim.sim_spans)

(* ---- Young cadence vs the Failure process (part of gate d) ---- *)

let young_validation ~p =
  let machine = fleet_machine ~nodes:p.nodes ~node_mtbf:p.mtbf_storm in
  let proc = Failure.of_machine (Rng.create 1) machine in
  let checks =
    Array.to_list classes
    |> List.map (fun cls ->
           let costs = Model.costs ~machine cls in
           let k = Model.young_steps ~machine cls ~costs in
           (* the allocation's MTBF, expressed through the Failure
              process's system MTBF: M_alloc = M_sys * nodes / ranks *)
           let m_alloc =
             Failure.mtbf proc *. float_of_int p.nodes /. float_of_int cls.Model.ranks
           in
           let tau =
             Checkpoint.young_interval
               {
                 Checkpoint.work = costs.Model.work_s;
                 checkpoint_cost = costs.Model.checkpoint_s;
                 restart_cost = costs.Model.restart_s;
                 mtbf = m_alloc;
               }
           in
           (* the cadence must be tau rounded to whole steps: off by at
              most one step (and never below one) *)
           let ok =
             k >= 1
             && Float.abs ((float_of_int k *. costs.Model.step_s) -. tau)
                <= costs.Model.step_s
           in
           (cls.Model.name, k, tau, costs.Model.step_s, ok))
  in
  let ok = List.for_all (fun (_, _, _, _, ok) -> ok) checks in
  let json =
    Json.Obj
      [
        ( "classes",
          Json.List
            (List.map
               (fun (name, k, tau, step, ok) ->
                 Json.Obj
                   [
                     ("class", Json.Str name);
                     ("young_steps", Json.int k);
                     ("tau_s", Json.Num tau);
                     ("step_s", Json.Num step);
                     ("ok", Json.Bool ok);
                   ])
               checks) );
        ("cadence_matches_young", Json.Bool ok);
      ]
  in
  (ok, json)

(* ---- policy table ---- *)

let policy_table ~p =
  Json.List
    (List.concat_map
       (fun capacity ->
         List.concat_map
           (fun max_batch ->
             List.map
               (fun cadence ->
                 let cfg =
                   mk_config ~p ~capacity ~max_batch ~cadence ~mtbf:p.mtbf_cadence ~seed:1 ()
                 in
                 let r, _ = run_one cfg in
                 Json.Obj
                   [
                     ("capacity", Json.int capacity);
                     ("max_batch", Json.int max_batch);
                     ("cadence", Json.Str (cadence_name cadence));
                     ("availability", Json.Num r.Sim.availability);
                     ("goodput_rps", Json.Num r.Sim.goodput_rps);
                     ("p99_ms", Json.Num r.Sim.p99_ms);
                     ("admission_rejects", Json.int r.Sim.counters.Sim.rejected_admission);
                     ("recovery_rejects", Json.int r.Sim.counters.Sim.rejected_recovery);
                   ])
               [ Sim.Every_step; Sim.Young; Sim.Never ])
           p.batches)
       p.capacities)

(* ---- scaling curve: weak-scaled offered load vs node count ---- *)

let scaling ~p =
  Json.List
    (List.map
       (fun nodes ->
         let rate_hz = p.rate_hz *. float_of_int nodes /. float_of_int p.nodes in
         let cfg = mk_config ~p ~nodes ~rate_hz ~mtbf:3600.0 ~seed:1 () in
         snd (run_one ~label:(Printf.sprintf "nodes=%d" nodes) cfg))
       p.scaling_nodes)

(* ---- real lib/ca tie-in ----

   The simulator prices requests with the closed-form models; here the
   real virtual-grid kernels run at small scale so the record carries the
   measured-vs-model communication ratio, and a repeated factorization
   must be bitwise identical — the same determinism the simulated storms
   gate on, on the real arithmetic. *)

let ca_tie_in () =
  let n = 96 and nb = 24 and pgrid = 4 in
  let a = Mat.random_spd (Rng.create 42) n in
  let r1 = Dist_cholesky.factor ~pr:2 ~pc:2 ~nb a in
  let r2 = Dist_cholesky.factor ~pr:2 ~pc:2 ~nb a in
  let bitwise_chol = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if
        Int64.bits_of_float (Mat.get r1.Dist_cholesky.l i j)
        <> Int64.bits_of_float (Mat.get r2.Dist_cholesky.l i j)
      then bitwise_chol := false
    done
  done;
  let m = Dist_cholesky.model_2d ~n ~nb ~p:pgrid in
  let chol_words_ratio =
    r1.Dist_cholesky.words /. float_of_int pgrid /. m.Dist_cholesky.words_per_rank
  in
  let ng = 64 in
  let rng = Rng.create 43 in
  let b1 = Mat.random rng ng ng and b2 = Mat.random rng ng ng in
  let s1 = Summa.summa ~p:pgrid b1 b2 in
  let s2 = Summa.summa ~p:pgrid b1 b2 in
  let bitwise_summa = ref true in
  for i = 0 to ng - 1 do
    for j = 0 to ng - 1 do
      if
        Int64.bits_of_float (Mat.get s1.Summa.product i j)
        <> Int64.bits_of_float (Mat.get s2.Summa.product i j)
      then bitwise_summa := false
    done
  done;
  let sm = Summa.model_2d ~n:ng ~p:pgrid in
  let summa_words_ratio =
    s1.Summa.words /. float_of_int pgrid /. sm.Summa.words_per_rank
  in
  let ok = !bitwise_chol && !bitwise_summa in
  let json =
    Json.Obj
      [
        ( "chol",
          Json.Obj
            [
              ("n", Json.int n);
              ("nb", Json.int nb);
              ("p", Json.int pgrid);
              ("bitwise_repeat", Json.Bool !bitwise_chol);
              ("measured_words", Json.Num r1.Dist_cholesky.words);
              ("model_words_per_rank", Json.Num m.Dist_cholesky.words_per_rank);
              ("words_ratio", Json.Num chol_words_ratio);
            ] );
        ( "summa",
          Json.Obj
            [
              ("n", Json.int ng);
              ("p", Json.int pgrid);
              ("bitwise_repeat", Json.Bool !bitwise_summa);
              ("words_ratio", Json.Num summa_words_ratio);
            ] );
        ("deterministic", Json.Bool ok);
      ]
  in
  (ok, json)

(* ---- the record ---- *)

let record ~p =
  all_sound := true;
  let gate_a, sweep_json = mtbf_sweep ~p in
  let gate_b, cadence_json, _ = cadence_compare ~p in
  let gate_c, replay_json, replay_spans = replay ~p in
  let young_ok, young_json = young_validation ~p in
  let table_json = policy_table ~p in
  let scaling_json = scaling ~p in
  let ca_ok, ca_json = ca_tie_in () in
  let gate_d = !all_sound && young_ok in
  let ok = gate_a && gate_b && gate_c && gate_d && ca_ok in
  let machine = fleet_machine ~nodes:p.nodes ~node_mtbf:p.mtbf_storm in
  let class_json c =
    let costs = Model.costs ~machine c in
    Json.Obj
      [
        ("name", Json.Str c.Model.name);
        ( "kind",
          Json.Str
            (match c.Model.kind with
            | Model.Chol -> "chol"
            | Model.Gemm -> "gemm"
            | Model.Cg _ -> "cg") );
        ("n", Json.int c.Model.n);
        ("nb", Json.int c.Model.nb);
        ("ranks", Json.int c.Model.ranks);
        ("deadline_s", Json.Num c.Model.deadline_s);
        ("weight", Json.Num c.Model.weight);
        ("steps", Json.int costs.Model.steps);
        ("step_s", Json.Num costs.Model.step_s);
        ("work_s", Json.Num costs.Model.work_s);
        ("checkpoint_s", Json.Num costs.Model.checkpoint_s);
        ("restart_s", Json.Num costs.Model.restart_s);
      ]
  in
  let json =
    Json.Obj
      [
        ("schema", Json.Str "xsc-bench-fleet-v1");
        ( "machine",
          Json.Obj
            [
              ("nodes", Json.int p.nodes);
              ("storm_node_mtbf_s", Json.Num p.mtbf_storm);
              ("storm_system_mtbf_s", Json.Num (Machine.system_mtbf machine));
              ("alpha_s", Json.Num machine.Machine.network.Network.alpha);
              ("beta_s_per_byte", Json.Num machine.Machine.network.Network.beta);
            ] );
        ("classes", Json.List (Array.to_list (Array.map class_json classes)));
        ( "offered",
          Json.Obj
            [
              ("rate_hz", Json.Num p.rate_hz);
              ("count", Json.int p.count);
              ("seeds", Json.List (List.map Json.int p.seeds));
            ] );
        ("mtbf_sweep", sweep_json);
        ("cadence_compare", cadence_json);
        ("replay", replay_json);
        ("young_validation", young_json);
        ("policy_table", table_json);
        ("scaling", scaling_json);
        ("ca_tie_in", ca_json);
        ( "gates",
          Json.Obj
            [
              ("availability_monotone", Json.Bool gate_a);
              ("young_wins_storm", Json.Bool gate_b);
              ("replay_bitwise", Json.Bool gate_c);
              ("lattice_reconciles", Json.Bool gate_d);
              ("ca_deterministic", Json.Bool ca_ok);
              ("all", Json.Bool ok);
            ] );
      ]
  in
  (json, ok, replay_spans)

let human ~p json_ok =
  Printf.printf "fleet: %d nodes, storm node-MTBF %.0f s (system MTBF %.1f s), %d req @ %.1f rps\n"
    p.nodes p.mtbf_storm
    (Machine.system_mtbf (fleet_machine ~nodes:p.nodes ~node_mtbf:p.mtbf_storm))
    p.count p.rate_hz;
  Printf.printf "gates %s\n" (if json_ok then "passed" else "FAILED")

let run_with ~p ~file =
  let json, ok, replay_spans = record ~p in
  Bench_json.write_json ~file (Json.Obj [ ("fleet", json) ]);
  Printf.printf "wrote %s\n" file;
  human ~p ok;
  if not ok then begin
    (* gate failing: ship the replay storm's simulated spans next to the
       red record *)
    let base = Filename.remove_extension file in
    ignore
      (Flight.dump ~path:(base ^ "_gate_flight.bin") ~reason:"bench-fleet-gate-failure"
         replay_spans);
    Printf.eprintf "fleet record self-checks FAILED (see %s)\n" file;
    exit 1
  end;
  print_endline "fleet record self-checks passed"

let run ~file = run_with ~p:full ~file
let smoke ~file = run_with ~p:smoke_params ~file
