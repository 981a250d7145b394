(* Tests for Xsc_simmachine: DES engine, topologies, network model, node and
   machine models, failure process, presets. *)

module Des = Xsc_simmachine.Des
module Topology = Xsc_simmachine.Topology
module Network = Xsc_simmachine.Network
module Node = Xsc_simmachine.Node
module Machine = Xsc_simmachine.Machine
module Failure = Xsc_simmachine.Failure
module Presets = Xsc_simmachine.Presets
module Rng = Xsc_util.Rng

let qcheck tc = QCheck_alcotest.to_alcotest tc

(* ---- Des ---- *)

let test_des_ordering () =
  let sim = Des.create () in
  let log = ref [] in
  Des.schedule sim 3.0 (fun () -> log := 3 :: !log);
  Des.schedule sim 1.0 (fun () -> log := 1 :: !log);
  Des.schedule sim 2.0 (fun () -> log := 2 :: !log);
  let final = Des.run sim in
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 0.0)) "clock at last event" 3.0 final

let test_des_fifo_ties () =
  let sim = Des.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Des.schedule sim 1.0 (fun () -> log := i :: !log)
  done;
  ignore (Des.run sim);
  Alcotest.(check (list int)) "FIFO among equal times" (List.init 10 (fun i -> i))
    (List.rev !log)

let test_des_cascading () =
  let sim = Des.create () in
  let count = ref 0 in
  let rec chain n = if n > 0 then Des.schedule_after sim 1.0 (fun () -> incr count; chain (n - 1)) in
  chain 5;
  let final = Des.run sim in
  Alcotest.(check int) "all ran" 5 !count;
  Alcotest.(check (float 0.0)) "clock advanced" 5.0 final

let test_des_until () =
  let sim = Des.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Des.schedule sim (float_of_int i) (fun () -> incr count)
  done;
  let final = Des.run ~until:5.5 sim in
  Alcotest.(check int) "only first 5" 5 !count;
  Alcotest.(check (float 0.0)) "clock clamped" 5.5 final;
  Alcotest.(check int) "rest pending" 5 (Des.pending sim)

let test_des_stop () =
  let sim = Des.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Des.schedule sim (float_of_int i) (fun () ->
        incr count;
        if !count = 3 then Des.stop sim)
  done;
  ignore (Des.run sim);
  Alcotest.(check int) "stopped after 3" 3 !count

let test_des_past_raises () =
  let sim = Des.create () in
  Des.schedule sim 5.0 (fun () ->
      Alcotest.check_raises "past" (Invalid_argument "Des.schedule: time in the past")
        (fun () -> Des.schedule sim 1.0 ignore));
  ignore (Des.run sim)

(* ---- Topology ---- *)

let test_ring_hops () =
  let t = Topology.Ring 10 in
  Alcotest.(check int) "adjacent" 1 (Topology.hops t 0 1);
  Alcotest.(check int) "wraparound" 1 (Topology.hops t 0 9);
  Alcotest.(check int) "across" 5 (Topology.hops t 0 5);
  Alcotest.(check int) "self" 0 (Topology.hops t 4 4);
  Alcotest.(check int) "diameter" 5 (Topology.diameter t)

let test_mesh_hops () =
  let t = Topology.Mesh2d (4, 4) in
  Alcotest.(check int) "manhattan" 6 (Topology.hops t 0 15);
  Alcotest.(check int) "diameter" 6 (Topology.diameter t)

let test_torus_hops () =
  let t = Topology.Torus3d (4, 4, 4) in
  (* opposite corner: wraparound makes each dim distance <= 2 *)
  Alcotest.(check int) "corner" 3 (Topology.hops t 0 63);
  Alcotest.(check int) "diameter" 6 (Topology.diameter t)

let test_fattree_hops () =
  let t = Topology.Fat_tree { arity = 2; levels = 3 } in
  Alcotest.(check int) "nodes" 8 (Topology.nodes t);
  Alcotest.(check int) "siblings" 2 (Topology.hops t 0 1);
  Alcotest.(check int) "cousins" 4 (Topology.hops t 0 2);
  Alcotest.(check int) "across root" 6 (Topology.hops t 0 7);
  Alcotest.(check int) "diameter" 6 (Topology.diameter t)

let test_dragonfly_hops () =
  let t = Topology.Dragonfly { groups = 3; routers_per_group = 2; nodes_per_router = 2 } in
  Alcotest.(check int) "nodes" 12 (Topology.nodes t);
  Alcotest.(check int) "same router" 2 (Topology.hops t 0 1);
  Alcotest.(check int) "same group" 3 (Topology.hops t 0 2);
  Alcotest.(check int) "cross group" 5 (Topology.hops t 0 11)

let test_alltoall () =
  let t = Topology.All_to_all 16 in
  Alcotest.(check int) "one hop" 1 (Topology.hops t 3 12);
  Alcotest.(check (float 0.0)) "avg" 1.0 (Topology.average_hops t)

let prop_hops_symmetric =
  QCheck.Test.make ~name:"hops symmetric and bounded by diameter" ~count:200
    QCheck.(triple (int_range 0 5) small_int small_int)
    (fun (which, a, b) ->
      let t =
        match which with
        | 0 -> Topology.Ring 12
        | 1 -> Topology.Mesh2d (3, 4)
        | 2 -> Topology.Torus3d (2, 3, 2)
        | 3 -> Topology.Fat_tree { arity = 2; levels = 3 }
        | 4 -> Topology.Dragonfly { groups = 3; routers_per_group = 2; nodes_per_router = 2 }
        | _ -> Topology.All_to_all 12
      in
      let n = Topology.nodes t in
      let a = a mod n and b = b mod n in
      Topology.hops t a b = Topology.hops t b a
      && Topology.hops t a b <= Topology.diameter t
      && (a <> b || Topology.hops t a b = 0))

let test_of_spec () =
  List.iter
    (fun kind ->
      let t = Topology.of_spec kind 100 in
      Alcotest.(check bool) (kind ^ " covers n") true (Topology.nodes t >= 100))
    [ "alltoall"; "ring"; "mesh2d"; "torus3d"; "fattree"; "dragonfly" ];
  Alcotest.check_raises "unknown" (Invalid_argument "Topology.of_spec: unknown topology star")
    (fun () -> ignore (Topology.of_spec "star" 4))

(* ---- Network ---- *)

let net () = Network.create ~alpha:1e-6 ~beta:1e-9 ~per_hop:1e-7 (Topology.Ring 16)

let test_ptp_monotone_in_bytes () =
  let n = net () in
  Alcotest.(check bool) "monotone" true
    (Network.ptp_avg n ~bytes:1e6 > Network.ptp_avg n ~bytes:1e3)

let test_rounds () =
  Alcotest.(check int) "p=1" 0 (Network.rounds 1);
  Alcotest.(check int) "p=2" 1 (Network.rounds 2);
  Alcotest.(check int) "p=5" 3 (Network.rounds 5);
  Alcotest.(check int) "p=1024" 10 (Network.rounds 1024)

let test_collectives_scale_log () =
  let n = net () in
  let t16 = Network.allreduce_time n ~ranks:16 ~bytes:8.0 in
  let t256 = Network.allreduce_time n ~ranks:256 ~bytes:8.0 in
  Alcotest.(check (float 1e-12)) "log scaling: 8 rounds vs 4" (t16 *. 2.0) t256

let test_barrier_positive () =
  let n = net () in
  Alcotest.(check bool) "positive" true (Network.barrier_time n ~ranks:64 > 0.0);
  Alcotest.(check (float 0.0)) "1 rank free" 0.0 (Network.barrier_time n ~ranks:1)

(* ---- Node ---- *)

let node () = Node.create ~cores:8 ~flops_fp64:1e10 ~mem_bandwidth:1e11 ~watts:100.0 ()

let test_node_rates () =
  let n = node () in
  Alcotest.(check (float 0.0)) "fp64 core" 1e10 (Node.core_rate n Node.FP64);
  Alcotest.(check (float 0.0)) "fp32 default 2x" 2e10 (Node.core_rate n Node.FP32);
  Alcotest.(check (float 0.0)) "fp16 default 4x" 4e10 (Node.core_rate n Node.FP16);
  Alcotest.(check (float 0.0)) "node rate" 8e10 (Node.node_rate n Node.FP64);
  Alcotest.(check (float 1e-9)) "balance" 0.8 (Node.machine_balance n)

let test_node_roofline () =
  let n = node () in
  (* low intensity: bandwidth bound *)
  Alcotest.(check (float 1e-3)) "bw bound" 1e10 (Node.roofline_rate n Node.FP64 ~intensity:0.1);
  (* high intensity: compute bound *)
  Alcotest.(check (float 1e-3)) "peak bound" 8e10
    (Node.roofline_rate n Node.FP64 ~intensity:100.0)

(* ---- Machine ---- *)

let machine () =
  Machine.create ~name:"test" ~node:(node ()) ~node_count:100
    ~network:(net ()) ~node_mtbf:1e6 ()

let test_machine_aggregates () =
  let m = machine () in
  Alcotest.(check int) "cores" 800 (Machine.total_cores m);
  Alcotest.(check (float 0.0)) "peak" 8e12 (Machine.peak m Node.FP64);
  Alcotest.(check (float 1e-9)) "mtbf shrinks with scale" 1e4 (Machine.system_mtbf m);
  Alcotest.(check (float 0.0)) "power" 1e4 (Machine.power m);
  Alcotest.(check (float 0.0)) "energy" 3.6e7 (Machine.energy m ~seconds:3600.0)

(* ---- Failure ---- *)

let test_failure_mean_interarrival () =
  let rng = Rng.create 11 in
  let f = Failure.create rng ~rate:0.01 in
  let n = 20_000 in
  let acc = ref 0.0 and prev = ref 0.0 in
  for _ = 1 to n do
    let next = Failure.next_after f !prev in
    acc := !acc +. (next -. !prev);
    prev := next
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean ~ 1/rate" true (abs_float (mean -. 100.0) < 3.0)

let test_failures_before () =
  let rng = Rng.create 13 in
  let f = Failure.create rng ~rate:0.1 in
  let failures = Failure.failures_before f ~horizon:1000.0 in
  Alcotest.(check bool) "ascending, within horizon" true
    (List.for_all (fun t -> t >= 0.0 && t < 1000.0) failures
    && List.sort compare failures = failures);
  Alcotest.(check bool) "count near expectation" true
    (abs_float (float_of_int (List.length failures) -. 100.0) < 40.0);
  Alcotest.(check (float 0.0)) "expectation" 100.0 (Failure.expected_failures f ~horizon:1000.0)

let test_failure_of_machine () =
  let rng = Rng.create 17 in
  let f = Failure.of_machine rng (machine ()) in
  Alcotest.(check (float 1e-9)) "rate = 1/system mtbf" 1e-4 (Failure.rate f)

let test_failures_before_seeded () =
  (* the fleet bench's replay gate leans on this: the same seed must give
     the bit-identical failure schedule, and a different seed must not *)
  let draw seed = Failure.failures_before (Failure.create (Rng.create seed) ~rate:0.05) ~horizon:2000.0 in
  Alcotest.(check bool) "same seed, bitwise schedule" true (draw 23 = draw 23);
  Alcotest.(check bool) "different seed, different storm" true (draw 23 <> draw 24)

let test_expected_vs_empirical () =
  (* average over many independent storms: the empirical count converges
     on [expected_failures] (Poisson mean rate*horizon = 50) *)
  let rate = 0.05 and horizon = 1000.0 in
  let trials = 400 in
  let total = ref 0 in
  for seed = 1 to trials do
    let f = Failure.create (Rng.create seed) ~rate in
    total := !total + List.length (Failure.failures_before f ~horizon)
  done;
  let mean = float_of_int !total /. float_of_int trials in
  let expect = Failure.expected_failures (Failure.create (Rng.create 0) ~rate) ~horizon in
  Alcotest.(check (float 0.0)) "expectation arithmetic" 50.0 expect;
  (* sigma of the trial mean is sqrt(50/400) ~ 0.35; allow 4 sigma *)
  Alcotest.(check bool)
    (Printf.sprintf "empirical mean %.2f ~ %.0f" mean expect)
    true
    (abs_float (mean -. expect) < 1.5)

let test_system_mtbf_at_paper_scale () =
  (* the paper's arithmetic on real fleets: a 2-year node MTBF collapses
     to under an hour at Titan scale and to minutes at exascale *)
  let two_years = 2.0 *. 365.25 *. 86400.0 in
  let mtbf nodes =
    let m =
      Machine.create ~name:"paper" ~node:(node ()) ~node_count:nodes
        ~network:(net ()) ~node_mtbf:two_years ()
    in
    Machine.system_mtbf m
  in
  Alcotest.(check (float 1e-6)) "titan-scale (18688 nodes)"
    (two_years /. 18688.0) (mtbf 18688);
  Alcotest.(check bool) "titan-scale under an hour" true (mtbf 18688 < 3600.0);
  Alcotest.(check bool) "exascale (100k nodes) minutes" true (mtbf 100_000 < 660.0)

(* ---- Presets ---- *)

let test_presets_sane () =
  List.iter
    (fun (name, m) ->
      Alcotest.(check string) "name matches" name m.Machine.name;
      Alcotest.(check bool) "peak positive" true (Machine.peak m Node.FP64 > 0.0);
      Alcotest.(check bool) "describe nonempty" true (String.length (Machine.describe m) > 10))
    Presets.all

let test_presets_ordering () =
  let peak name = Machine.peak (Presets.find name) Node.FP64 in
  Alcotest.(check bool) "workstation < cluster < titan < exascale" true
    (peak "workstation" < peak "cluster-2016"
    && peak "cluster-2016" < peak "titan-like"
    && peak "titan-like" < peak "exascale-2020");
  (* the exascale machine reaches ~1 Eflop/s *)
  Alcotest.(check bool) "exascale ~ 1e18" true (peak "exascale-2020" >= 0.9e18)

let test_exascale_mtbf_collapse () =
  let m = Presets.find "exascale-2020" in
  (* the paper's headline arithmetic: system MTBF under an hour *)
  Alcotest.(check bool) "MTBF below 1h" true (Machine.system_mtbf m < 3600.0)

let test_scale_nodes () =
  let m = Presets.scale_nodes (Presets.find "cluster-2016") 512 in
  Alcotest.(check int) "node count" 512 m.Machine.node_count;
  Alcotest.(check bool) "topology refit" true
    (Topology.nodes m.Machine.network.Network.topology >= 512)

let () =
  Alcotest.run "xsc_simmachine"
    [
      ( "des",
        [
          Alcotest.test_case "ordering" `Quick test_des_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_des_fifo_ties;
          Alcotest.test_case "cascading" `Quick test_des_cascading;
          Alcotest.test_case "until" `Quick test_des_until;
          Alcotest.test_case "stop" `Quick test_des_stop;
          Alcotest.test_case "past raises" `Quick test_des_past_raises;
        ] );
      ( "topology",
        [
          Alcotest.test_case "ring" `Quick test_ring_hops;
          Alcotest.test_case "mesh" `Quick test_mesh_hops;
          Alcotest.test_case "torus" `Quick test_torus_hops;
          Alcotest.test_case "fat tree" `Quick test_fattree_hops;
          Alcotest.test_case "dragonfly" `Quick test_dragonfly_hops;
          Alcotest.test_case "all-to-all" `Quick test_alltoall;
          qcheck prop_hops_symmetric;
          Alcotest.test_case "of_spec" `Quick test_of_spec;
        ] );
      ( "network",
        [
          Alcotest.test_case "ptp monotone" `Quick test_ptp_monotone_in_bytes;
          Alcotest.test_case "rounds" `Quick test_rounds;
          Alcotest.test_case "collectives log scaling" `Quick test_collectives_scale_log;
          Alcotest.test_case "barrier" `Quick test_barrier_positive;
        ] );
      ( "node",
        [
          Alcotest.test_case "rates" `Quick test_node_rates;
          Alcotest.test_case "roofline" `Quick test_node_roofline;
        ] );
      ( "machine",
        [
          Alcotest.test_case "aggregates" `Quick test_machine_aggregates;
        ] );
      ( "failure",
        [
          Alcotest.test_case "mean interarrival" `Quick test_failure_mean_interarrival;
          Alcotest.test_case "failures_before" `Quick test_failures_before;
          Alcotest.test_case "of_machine" `Quick test_failure_of_machine;
          Alcotest.test_case "seeded schedule" `Quick test_failures_before_seeded;
          Alcotest.test_case "expected vs empirical" `Quick test_expected_vs_empirical;
          Alcotest.test_case "paper-scale MTBF" `Quick test_system_mtbf_at_paper_scale;
        ] );
      ( "presets",
        [
          Alcotest.test_case "sane" `Quick test_presets_sane;
          Alcotest.test_case "peak ordering" `Quick test_presets_ordering;
          Alcotest.test_case "exascale MTBF collapse" `Quick test_exascale_mtbf_collapse;
          Alcotest.test_case "scale_nodes" `Quick test_scale_nodes;
        ] );
    ]
