(* Tests for Xsc_hpcbench: HPL/HPCG drivers and models, roofline, Top500
   trends. *)

module Hpl = Xsc_hpcbench.Hpl
module Hpcg = Xsc_hpcbench.Hpcg
module Top500 = Xsc_hpcbench.Top500
module Roofline = Xsc_hpcbench.Roofline
module Presets = Xsc_simmachine.Presets
module Node = Xsc_simmachine.Node
module Machine = Xsc_simmachine.Machine

(* ---- HPL ---- *)

let test_hpl_flops () =
  Alcotest.(check (float 1.0)) "official count"
    ((2.0 /. 3.0 *. 1e9) +. (1.5 *. 1e6))
    (Hpl.flops 1000)

let test_hpl_run_host () =
  let r = Hpl.run_host ~n:128 () in
  Alcotest.(check bool) "passes residual check" true r.Hpl.passed;
  Alcotest.(check bool) "gflops positive" true (r.Hpl.gflops > 0.0);
  Alcotest.(check int) "n recorded" 128 r.Hpl.n

let test_hpl_run_host_tiled () =
  let r = Hpl.run_host_tiled ~n:128 ~nb:32 ~workers:2 () in
  Alcotest.(check bool) "passes residual check" true r.Hpl.passed;
  Alcotest.(check bool) "gflops positive" true (r.Hpl.gflops > 0.0)

let test_hpl_model_fraction () =
  let m = Presets.titan_like in
  let n = Hpl.pick_n m ~memory_per_node:32e9 in
  let model = Hpl.model m ~n () in
  (* HPL reaches a large fraction of peak: the talk's figure is ~65% for
     Titan; our model must land in the same regime *)
  Alcotest.(check bool)
    (Printf.sprintf "fraction %.2f in [0.4, 1.0]" model.Hpl.fraction_of_peak)
    true
    (model.Hpl.fraction_of_peak > 0.4 && model.Hpl.fraction_of_peak <= 1.0);
  Alcotest.(check bool) "takes hours, not seconds" true (model.Hpl.time > 600.0)

let test_hpl_pick_n () =
  let m = Presets.cluster_2016 in
  let n = Hpl.pick_n m ~memory_per_node:64e9 in
  Alcotest.(check bool) "multiple of 256" true (n mod 256 = 0);
  (* 8 n^2 <= 80% of total memory *)
  Alcotest.(check bool) "fits in memory" true
    (8.0 *. float_of_int n *. float_of_int n <= 0.8 *. 64e9 *. 128.0)

(* ---- HPCG ---- *)

let test_hpcg_run_host () =
  let r = Hpcg.run_host ~iterations:25 ~grid:8 () in
  Alcotest.(check int) "iterations" 25 r.Hpcg.iterations;
  Alcotest.(check bool) "gflops positive" true (r.Hpcg.gflops > 0.0);
  Alcotest.(check bool) "residual dropped" true (r.Hpcg.final_relative_residual < 1e-2)

let test_hpcg_mg_preconditioner () =
  let symgs = Hpcg.run_host ~iterations:30 ~grid:8 () in
  let mg = Hpcg.run_host ~iterations:30 ~preconditioner:`Mg ~grid:8 () in
  (* the V-cycle is a stronger preconditioner: the residual after the same
     iteration budget is (much) smaller *)
  Alcotest.(check bool) "MG drives the residual lower" true
    (mg.Hpcg.final_relative_residual < symgs.Hpcg.final_relative_residual)

let test_hpcg_model_fraction () =
  let m = Presets.titan_like in
  let model = Hpcg.model m ~unknowns_per_node:1_000_000 in
  (* HPCG runs at a few percent of peak on high-balance machines *)
  Alcotest.(check bool)
    (Printf.sprintf "fraction %.4f below 10%%" model.Hpcg.fraction_of_peak)
    true
    (model.Hpcg.fraction_of_peak < 0.10);
  Alcotest.(check bool) "but not absurdly low" true (model.Hpcg.fraction_of_peak > 1e-4)

let test_hpl_hpcg_gap () =
  (* the headline claim of FIG-2: orders of magnitude between HPL and HPCG
     fractions of peak *)
  let m = Presets.titan_like in
  let hpl = (Hpl.model m ~n:(Hpl.pick_n m ~memory_per_node:32e9) ()).Hpl.fraction_of_peak in
  let hpcg = (Hpcg.model m ~unknowns_per_node:1_000_000).Hpcg.fraction_of_peak in
  Alcotest.(check bool)
    (Printf.sprintf "gap %.1fx > 10x" (hpl /. hpcg))
    true
    (hpl /. hpcg > 10.0)

let test_hpcg_flops_per_iteration () =
  Alcotest.(check (float 1e-6)) "6 nnz + 10 rows" ((6.0 *. 27.0) +. 10.0)
    (Hpcg.flops_per_iteration ~nnz:27.0 ~rows:1.0)

(* ---- Roofline ---- *)

let test_roofline_intensities () =
  Alcotest.(check (float 1e-12)) "gemm nb=120" 10.0 (Roofline.gemm_intensity ~nb:120);
  let intensity name =
    (List.find
       (fun p -> p.Roofline.kernel = name)
       (Roofline.standard_points Presets.titan_like.Machine.node))
      .Roofline.intensity
  in
  Alcotest.(check bool) "triad tiny" true (intensity "stream-triad" < 0.1);
  Alcotest.(check bool) "27pt below half" true (intensity "spmv-27pt" < 0.5);
  let a = Xsc_sparse.Stencil.hpcg_27pt 6 in
  Alcotest.(check bool) "spmv intensity near asymptote" true
    (abs_float ((Xsc_sparse.Csr.spmv_flops a /. Xsc_sparse.Csr.spmv_bytes a) -. intensity "spmv-27pt")
    < 0.05)

let test_roofline_points_ordering () =
  let node = Presets.titan_like.Machine.node in
  let points = Roofline.standard_points node in
  let attainable name =
    (List.find (fun p -> p.Roofline.kernel = name) points).Roofline.attainable
  in
  Alcotest.(check bool) "triad < spmv < gemm" true
    (attainable "stream-triad" < attainable "spmv-27pt"
    && attainable "spmv-27pt" < attainable "gemm-nb256");
  (* large gemm approaches the compute roof; on this high-balance node the
     nb=256 intensity (21.3 flops/byte) is just below the ridge (28.8), so
     the attainable rate is a realistic ~74% of peak *)
  Alcotest.(check bool) "gemm near peak" true
    (attainable "gemm-nb256" > 0.5 *. Node.node_rate node Node.FP64);
  Alcotest.(check (float 1.0)) "gemm exactly at the memory bound"
    (Roofline.gemm_intensity ~nb:256 *. node.Node.mem_bandwidth)
    (attainable "gemm-nb256");
  List.iter
    (fun p ->
      Alcotest.(check bool) "fraction in (0,1]" true
        (p.Roofline.fraction_of_peak > 0.0 && p.Roofline.fraction_of_peak <= 1.0))
    points

let test_roofline_ridge () =
  let node = Presets.titan_like.Machine.node in
  let ridge = Roofline.ridge_point node in
  Alcotest.(check bool) "high-balance machine" true (ridge > 10.0);
  (* at the ridge intensity, bandwidth and compute bounds coincide *)
  Alcotest.(check (float 1.0)) "rates equal at ridge" (Node.node_rate node Node.FP64)
    (Node.roofline_rate node Node.FP64 ~intensity:ridge)

(* ---- Top500 ---- *)

let test_top500_monotone_milestones () =
  let rec check = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "years ascending" true (a.Top500.year < b.Top500.year);
      Alcotest.(check bool) "#1 never regresses" true (a.Top500.rmax_1 <= b.Top500.rmax_1);
      check rest
    | _ -> ()
  in
  check Top500.milestones

let test_top500_series_ordering () =
  List.iter
    (fun e ->
      Alcotest.(check bool) "#500 < #1 < sum" true
        (e.Top500.rmax_500 < e.Top500.rmax_1 && e.Top500.rmax_1 < e.Top500.sum))
    Top500.milestones

let test_top500_fit_quality () =
  List.iter
    (fun series ->
      let f = Top500.fit series in
      Alcotest.(check bool) "strong exponential trend" true (f.Xsc_util.Stats.r2 > 0.97);
      let decade = Top500.decade_years f in
      (* the talk: performance grows 10x every ~3.5-4 years *)
      Alcotest.(check bool)
        (Printf.sprintf "decade %.2f years in [3, 5]" decade)
        true
        (decade > 3.0 && decade < 5.0))
    [ Top500.Number_one; Top500.Number_500; Top500.Sum ]

let test_top500_exaflop_projection () =
  let year = Top500.projected_year Top500.Sum ~target:1e18 in
  (* the talk projects the list sum crossing 1 Eflop/s around 2017-2019 and
     a single machine around 2020-2023 *)
  Alcotest.(check bool) (Printf.sprintf "sum crosses ~%.1f" year) true
    (year > 2016.0 && year < 2021.0);
  let year1 = Top500.projected_year Top500.Number_one ~target:1e18 in
  Alcotest.(check bool) (Printf.sprintf "#1 crosses ~%.1f" year1) true
    (year1 > 2017.0 && year1 < 2025.0)

(* ---- Scaling ---- *)

module Scaling = Xsc_hpcbench.Scaling

let test_halo_bytes () =
  (* 6 faces of local^2 + 12 edges of local + 8 corners, 8 bytes each *)
  Alcotest.(check (float 1e-9)) "formula"
    (8.0 *. ((6.0 *. 64.0) +. (12.0 *. 8.0) +. 8.0))
    (Scaling.halo_bytes ~local:8)

let test_weak_scaling_stays_high () =
  let m = Presets.titan_like in
  let e1 = Scaling.weak_efficiency m ~local:64 ~nodes:1 in
  let e_mid = Scaling.weak_efficiency m ~local:64 ~nodes:512 in
  let e_big = Scaling.weak_efficiency m ~local:64 ~nodes:16384 in
  Alcotest.(check (float 1e-12)) "1 node is the reference" 1.0 e1;
  Alcotest.(check bool) "monotone decay" true (e_big <= e_mid && e_mid <= e1);
  Alcotest.(check bool) "still above 60% at 16k nodes" true (e_big > 0.6)

let test_strong_scaling_collapses () =
  let m = Presets.titan_like in
  let e8 = Scaling.strong_efficiency m ~total:256 ~nodes:8 in
  let e_big = Scaling.strong_efficiency m ~total:256 ~nodes:16384 in
  Alcotest.(check bool) "healthy at 8 nodes" true (e8 > 0.8);
  Alcotest.(check bool) "collapsed at 16k nodes" true (e_big < 0.5);
  let weak_big = Scaling.weak_efficiency m ~local:64 ~nodes:16384 in
  Alcotest.(check bool) "weak >> strong at scale" true (weak_big > 2.0 *. e_big)

(* ---- Green500 ---- *)

module Green500 = Xsc_hpcbench.Green500

let test_green500_trend () =
  let f = Green500.fit () in
  Alcotest.(check bool) "improving" true (f.Xsc_util.Stats.slope > 0.0);
  Alcotest.(check bool) "strong trend" true (f.Xsc_util.Stats.r2 > 0.9)

let test_green500_power_wall () =
  let need = Green500.required_gflops_per_watt ~target_flops:1e18 ~power_budget:20e6 in
  Alcotest.(check (float 1e-9)) "50 Gflops/W" 50.0 need;
  let year = Green500.projected_year ~efficiency:need in
  (* an order of magnitude beyond the 2016 leader: years away on the trend *)
  Alcotest.(check bool) (Printf.sprintf "reached ~%.1f (after 2018)" year) true
    (year > 2018.0 && year < 2030.0)

let test_green500_machine_efficiency () =
  let e16 = Green500.machine_gflops_per_watt Presets.titan_like in
  let e20 = Green500.machine_gflops_per_watt Presets.exascale_2020 in
  Alcotest.(check bool) "exascale preset is ~10x more efficient" true (e20 /. e16 > 5.0)

let test_top500_predicted_interpolates () =
  (* prediction at a milestone year is within a factor ~4 of the datum
     (least-squares on an exponential trend) *)
  let fit = Top500.fit Top500.Number_one in
  let f = 10.0 ** ((fit.Xsc_util.Stats.slope *. 2012.5) +. fit.Xsc_util.Stats.intercept) in
  let actual = 16.32e15 in
  let ratio = f /. actual in
  Alcotest.(check bool) "within 4x" true (ratio > 0.25 && ratio < 4.0)

let () =
  Alcotest.run "xsc_hpcbench"
    [
      ( "hpl",
        [
          Alcotest.test_case "flops" `Quick test_hpl_flops;
          Alcotest.test_case "run host" `Quick test_hpl_run_host;
          Alcotest.test_case "run host tiled" `Quick test_hpl_run_host_tiled;
          Alcotest.test_case "model fraction" `Quick test_hpl_model_fraction;
          Alcotest.test_case "pick_n" `Quick test_hpl_pick_n;
        ] );
      ( "hpcg",
        [
          Alcotest.test_case "run host" `Quick test_hpcg_run_host;
          Alcotest.test_case "mg preconditioner" `Quick test_hpcg_mg_preconditioner;
          Alcotest.test_case "model fraction" `Quick test_hpcg_model_fraction;
          Alcotest.test_case "HPL/HPCG gap" `Quick test_hpl_hpcg_gap;
          Alcotest.test_case "flops per iteration" `Quick test_hpcg_flops_per_iteration;
        ] );
      ( "roofline",
        [
          Alcotest.test_case "intensities" `Quick test_roofline_intensities;
          Alcotest.test_case "points ordering" `Quick test_roofline_points_ordering;
          Alcotest.test_case "ridge" `Quick test_roofline_ridge;
        ] );
      ( "top500",
        [
          Alcotest.test_case "milestones monotone" `Quick test_top500_monotone_milestones;
          Alcotest.test_case "series ordering" `Quick test_top500_series_ordering;
          Alcotest.test_case "fit quality" `Quick test_top500_fit_quality;
          Alcotest.test_case "exaflop projection" `Quick test_top500_exaflop_projection;
          Alcotest.test_case "prediction interpolates" `Quick
            test_top500_predicted_interpolates;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "halo bytes" `Quick test_halo_bytes;
          Alcotest.test_case "weak stays high" `Quick test_weak_scaling_stays_high;
          Alcotest.test_case "strong collapses" `Quick test_strong_scaling_collapses;
        ] );
      ( "green500",
        [
          Alcotest.test_case "trend" `Quick test_green500_trend;
          Alcotest.test_case "power wall" `Quick test_green500_power_wall;
          Alcotest.test_case "machine efficiency" `Quick test_green500_machine_efficiency;
        ] );
    ]
