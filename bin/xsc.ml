(* xsc: command-line front end to the extreme-scale computing library.

   Subcommands:
     machines    list the simulated machine presets
     solve       generate and solve a dense system (tiled algorithms)
     simulate    schedule a tiled-Cholesky DAG on a simulated machine
     hpl         run the HPL-like benchmark on this host or a model
     hpcg        run the HPCG-like benchmark on this host or a model
     top500      print the Top500 trend and exaflop projection
     checkpoint  Young/Daly checkpoint planning for a machine preset
     tune        autotune the packed microkernels; persist a host-keyed cache
     serve-demo  run the concurrent solver service under a seeded load
     fleet       simulate serve policies under a failure storm at scale
     flight      inspect a crash flight recorder dump (CRC-headed) *)

open Cmdliner
open Xsc_linalg
module Units = Xsc_util.Units
module Json = Xsc_util.Json

(* Closes the file on any exception, so an interrupted run never leaks a
   handle. *)
let write_file ~file s = Out_channel.with_open_text file (fun oc -> output_string oc s)
let write_json ~file j = write_file ~file (Json.to_string j ^ "\n")

(* ---- shared args ---- *)

let machine_arg =
  let doc = "Machine preset (workstation | cluster-2016 | titan-like | exascale-2020)." in
  Arg.(value & opt string "titan-like" & info [ "machine"; "m" ] ~docv:"NAME" ~doc)

let find_machine name =
  match List.assoc_opt name Xsc_simmachine.Presets.all with
  | Some m -> Ok m
  | None ->
    Error
      (Printf.sprintf "unknown machine %S; available: %s" name
         (String.concat ", " (List.map fst Xsc_simmachine.Presets.all)))

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let n_arg default =
  Arg.(value & opt int default & info [ "n"; "size" ] ~docv:"N" ~doc:"Problem size.")

let nb_arg = Arg.(value & opt int 64 & info [ "nb" ] ~docv:"NB" ~doc:"Tile size.")

let workers_arg =
  Arg.(value & opt int 0 & info [ "workers"; "w" ] ~docv:"W"
         ~doc:"Worker domains (0 = recommended for this host).")

(* ---- machines ---- *)

let machines_cmd =
  let run () =
    List.iter
      (fun (_, m) -> print_endline (Xsc_simmachine.Machine.describe m))
      Xsc_simmachine.Presets.all
  in
  Cmd.v (Cmd.info "machines" ~doc:"List the simulated machine presets")
    Term.(const run $ const ())

(* ---- solve ---- *)

let solve_cmd =
  let kind_arg =
    Arg.(value & opt string "spd" & info [ "kind"; "k" ] ~docv:"KIND"
           ~doc:"System kind: spd | general | ls | mixed | protected.")
  in
  let run kind n nb workers seed =
    let workers = if workers <= 0 then Xsc_runtime.Real_exec.default_workers () else workers in
    let opts =
      { Xsc_core.Solver.nb;
        exec = (if workers <= 1 then Xsc_core.Runtime_api.Sequential
                else Xsc_core.Runtime_api.Dataflow workers) }
    in
    let rng = Xsc_util.Rng.create seed in
    (* the printed time is the solve's, not the generation of the system *)
    let timed solve =
      let t0 = Unix.gettimeofday () in
      let x = solve () in
      (x, Unix.gettimeofday () -. t0)
    in
    let finish name a (x, seconds) b =
      Printf.printf "%s: n=%d nb=%d workers=%d  time %s  backward error %.2e\n" name n nb
        workers (Units.seconds seconds)
        (Xsc_core.Solver.residual a x b)
    in
    match kind with
    | "spd" ->
      let a = Mat.random_spd rng n in
      let b = Vec.random rng n in
      finish "solve_spd (packed tiled Cholesky)" a
        (timed (fun () -> Xsc_core.Solver.solve_spd ~opts a b)) b;
      `Ok ()
    | "general" ->
      let a = Mat.random_diag_dominant rng n in
      let b = Vec.random rng n in
      finish "solve_general (packed tiled LU)" a
        (timed (fun () -> Xsc_core.Solver.solve_general ~opts a b)) b;
      `Ok ()
    | "ls" ->
      let m = ((2 * n / nb) + 1) * nb and nn = n / nb * nb in
      let nn = max nb nn in
      let a = Mat.random rng m nn in
      let b = Vec.random rng m in
      let x, seconds = timed (fun () -> Xsc_core.Solver.solve_ls ~opts a b) in
      let r = Array.copy b in
      Blas.gemv ~alpha:(-1.0) a x ~beta:1.0 r;
      Printf.printf "solve_ls (tiled QR): %dx%d  time %s  ||A^T r|| = %.2e\n" m nn
        (Units.seconds seconds)
        (Vec.norm_inf (Mat.mul_vec (Mat.transpose a) r));
      `Ok ()
    | "mixed" ->
      let a = Mat.random_spd rng n in
      let b = Vec.random rng n in
      let r = Xsc_core.Solver.solve_spd_mixed a b in
      Printf.printf
        "solve_spd_mixed (packed fp32 Cholesky + IR, tuned nb): n=%d  %d sweeps  \
         backward error %.2e  modelled speedup %s\n"
        n r.Xsc_core.Solver.iterations r.Xsc_core.Solver.backward_error
        (Units.ratio r.Xsc_core.Solver.modeled_speedup);
      `Ok ()
    | "protected" ->
      let a = Mat.random_spd rng n in
      let b = Vec.random rng n in
      let inject l =
        ignore (Xsc_resilience.Inject.corrupt_lower_entry rng l ~magnitude:0.5)
      in
      let r = Xsc_core.Solver.solve_spd_protected ~opts ~inject a b in
      Printf.printf
        "solve_spd_protected: corruption detected=%b recovered_from_row=%s backward error %.2e\n"
        r.Xsc_core.Solver.corruption_detected
        (match r.Xsc_core.Solver.recovered_from_row with
        | Some r -> string_of_int r
        | None -> "-")
        (Xsc_core.Solver.residual a r.Xsc_core.Solver.x b);
      `Ok ()
    | other -> `Error (false, Printf.sprintf "unknown kind %S" other)
  in
  Cmd.v (Cmd.info "solve" ~doc:"Generate and solve a dense system with the tiled algorithms")
    Term.(ret (const run $ kind_arg $ n_arg 512 $ nb_arg $ workers_arg $ seed_arg))

(* ---- simulate ---- *)

let simulate_cmd =
  let nt_arg =
    Arg.(value & opt int 16 & info [ "nt" ] ~docv:"NT" ~doc:"Tiles per dimension.")
  in
  let policy_arg =
    Arg.(value & opt string "dag" & info [ "policy"; "p" ] ~docv:"P"
           ~doc:"Schedule policy: bsp | dag | fifo | steal.")
  in
  let sim_workers_arg =
    Arg.(value & opt int 64 & info [ "workers"; "w" ] ~docv:"W" ~doc:"Simulated workers.")
  in
  let gantt_arg =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Print the Gantt chart (small runs only).")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "trace-json" ] ~docv:"FILE"
           ~doc:"Write the schedule as Chrome trace-event JSON (chrome://tracing).")
  in
  let run machine nt nb policy workers gantt trace_json =
    match find_machine machine with
    | Error e -> `Error (false, e)
    | Ok m ->
      let policy =
        match policy with
        | "bsp" -> Ok Xsc_runtime.Sim_exec.Bsp
        | "dag" -> Ok Xsc_runtime.Sim_exec.List_critical_path
        | "fifo" -> Ok Xsc_runtime.Sim_exec.List_fifo
        | "steal" -> Ok (Xsc_runtime.Sim_exec.Work_stealing 17)
        | other -> Error (Printf.sprintf "unknown policy %S" other)
      in
      (match policy with
      | Error e -> `Error (false, e)
      | Ok policy ->
        let dag = Xsc_core.Cholesky.dag_ops ~nt ~nb in
        let cfg =
          Xsc_runtime.Sim_exec.config
            ~comm_cost:(fun ~bytes ->
              Xsc_simmachine.Network.ptp_avg m.Xsc_simmachine.Machine.network ~bytes)
            ~workers
            ~rate:
              (Xsc_simmachine.Node.core_rate m.Xsc_simmachine.Machine.node
                 Xsc_simmachine.Node.FP64)
            ()
        in
        let r = Xsc_runtime.Sim_exec.run cfg policy dag in
        Printf.printf
          "tiled Cholesky n=%d (%d tasks) on %s, %d workers:\n  makespan %s  utilization %s  comm %s  barriers %d\n"
          (nt * nb)
          (Xsc_runtime.Dag.n_tasks dag)
          machine workers
          (Units.seconds r.Xsc_runtime.Sim_exec.makespan)
          (Units.percent r.Xsc_runtime.Sim_exec.utilization)
          (Units.seconds r.Xsc_runtime.Sim_exec.comm_time)
          r.Xsc_runtime.Sim_exec.barriers;
        if gantt then print_string (Xsc_runtime.Trace.gantt r.Xsc_runtime.Sim_exec.trace);
        (match trace_json with
        | Some file ->
          write_file ~file (Xsc_runtime.Trace.to_chrome_json r.Xsc_runtime.Sim_exec.trace);
          Printf.printf "trace written to %s\n" file
        | None -> ());
        `Ok ())
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Schedule a tiled-Cholesky DAG on a simulated machine")
    Term.(ret (const run $ machine_arg $ nt_arg $ nb_arg $ policy_arg $ sim_workers_arg $ gantt_arg $ json_arg))

(* ---- hpl / hpcg ---- *)

let hpl_cmd =
  let model_arg =
    Arg.(value & flag & info [ "model" ] ~doc:"Model at machine scale instead of running.")
  in
  let run n machine model =
    if model then begin
      match find_machine machine with
      | Error e -> `Error (false, e)
      | Ok m ->
        let n = Xsc_hpcbench.Hpl.pick_n m ~memory_per_node:32e9 in
        let r = Xsc_hpcbench.Hpl.model m ~n () in
        Printf.printf "HPL model on %s: n=%d  time %s  %.2f Tflop/s  (%s of peak)\n" machine n
          (Units.seconds r.Xsc_hpcbench.Hpl.time)
          (r.Xsc_hpcbench.Hpl.gflops_total /. 1e3)
          (Units.percent r.Xsc_hpcbench.Hpl.fraction_of_peak);
        `Ok ()
    end
    else begin
      let r = Xsc_hpcbench.Hpl.run_host ~n () in
      Printf.printf "HPL-like on this host: n=%d  %.3f Gflop/s  residual %.2f (%s)\n"
        r.Xsc_hpcbench.Hpl.n r.Xsc_hpcbench.Hpl.gflops r.Xsc_hpcbench.Hpl.residual
        (if r.Xsc_hpcbench.Hpl.passed then "pass" else "FAIL");
      `Ok ()
    end
  in
  Cmd.v (Cmd.info "hpl" ~doc:"HPL-like dense benchmark (host run or machine model)")
    Term.(ret (const run $ n_arg 256 $ machine_arg $ model_arg))

let hpcg_cmd =
  let grid_arg =
    Arg.(value & opt int 12 & info [ "grid"; "g" ] ~docv:"G" ~doc:"Grid dimension (G^3 unknowns).")
  in
  let iters_arg =
    Arg.(value & opt int 50 & info [ "iterations"; "i" ] ~docv:"I" ~doc:"CG iterations.")
  in
  let model_arg =
    Arg.(value & flag & info [ "model" ] ~doc:"Model at machine scale instead of running.")
  in
  let run grid iterations machine model =
    if model then begin
      match find_machine machine with
      | Error e -> `Error (false, e)
      | Ok m ->
        let r = Xsc_hpcbench.Hpcg.model m ~unknowns_per_node:1_000_000 in
        Printf.printf "HPCG model on %s: %.2f Tflop/s (%s of peak), %s/iteration\n" machine
          (r.Xsc_hpcbench.Hpcg.gflops_total /. 1e3)
          (Units.percent r.Xsc_hpcbench.Hpcg.fraction_of_peak)
          (Units.seconds r.Xsc_hpcbench.Hpcg.time_per_iteration);
        `Ok ()
    end
    else begin
      let r = Xsc_hpcbench.Hpcg.run_host ~iterations ~grid () in
      Printf.printf
        "HPCG-like on this host: grid %d^3, %d iterations  %.3f Gflop/s  rel.residual %.1e\n"
        r.Xsc_hpcbench.Hpcg.grid r.Xsc_hpcbench.Hpcg.iterations r.Xsc_hpcbench.Hpcg.gflops
        r.Xsc_hpcbench.Hpcg.final_relative_residual;
      `Ok ()
    end
  in
  Cmd.v (Cmd.info "hpcg" ~doc:"HPCG-like sparse benchmark (host run or machine model)")
    Term.(ret (const run $ grid_arg $ iters_arg $ machine_arg $ model_arg))

(* ---- top500 ---- *)

let top500_cmd =
  let target_arg =
    Arg.(value & opt float 1e18 & info [ "target" ] ~docv:"FLOPS" ~doc:"Projection target in flop/s.")
  in
  let run target =
    List.iter
      (fun (name, series) ->
        let f = Xsc_hpcbench.Top500.fit series in
        Printf.printf "%-5s 10x every %.2f years (r^2 %.4f), %s at %.1f\n" name
          (Xsc_hpcbench.Top500.decade_years f)
          f.Xsc_util.Stats.r2 (Units.flops target)
          (Xsc_hpcbench.Top500.projected_year series ~target))
      [ ("#1", Xsc_hpcbench.Top500.Number_one);
        ("#500", Xsc_hpcbench.Top500.Number_500);
        ("sum", Xsc_hpcbench.Top500.Sum) ]
  in
  Cmd.v (Cmd.info "top500" ~doc:"Top500 trend fit and projection")
    Term.(const run $ target_arg)

(* ---- checkpoint ---- *)

let checkpoint_cmd =
  let work_arg =
    Arg.(value & opt float 86400.0 & info [ "work" ] ~docv:"SECONDS" ~doc:"Failure-free job length.")
  in
  let cost_arg =
    Arg.(value & opt float 240.0 & info [ "cost"; "c" ] ~docv:"SECONDS" ~doc:"Checkpoint write cost.")
  in
  let restart_arg =
    Arg.(value & opt float 600.0 & info [ "restart"; "r" ] ~docv:"SECONDS" ~doc:"Restart cost.")
  in
  let run machine work checkpoint_cost restart_cost =
    match find_machine machine with
    | Error e -> `Error (false, e)
    | Ok m ->
      let p =
        {
          Xsc_resilience.Checkpoint.work;
          checkpoint_cost;
          restart_cost;
          mtbf = Xsc_simmachine.Machine.system_mtbf m;
        }
      in
      let tau = Xsc_resilience.Checkpoint.daly_interval p in
      Printf.printf
        "%s: MTBF %s\n  Daly interval %s\n  expected completion %s (efficiency %s)\n" machine
        (Units.seconds p.Xsc_resilience.Checkpoint.mtbf)
        (Units.seconds tau)
        (Units.seconds (Xsc_resilience.Checkpoint.expected_time p ~interval:tau))
        (Units.percent (Xsc_resilience.Checkpoint.efficiency p ~interval:tau));
      `Ok ()
  in
  Cmd.v (Cmd.info "checkpoint" ~doc:"Young/Daly checkpoint planning for a machine preset")
    Term.(ret (const run $ machine_arg $ work_arg $ cost_arg $ restart_arg))

(* ---- krylov ---- *)

let krylov_cmd =
  let grid_arg =
    Arg.(value & opt int 10 & info [ "grid"; "g" ] ~docv:"G" ~doc:"Grid dimension (G^3 unknowns).")
  in
  let run grid machine =
    match find_machine machine with
    | Error e -> `Error (false, e)
    | Ok m ->
      let a = Xsc_sparse.Stencil.hpcg_27pt grid in
      let _, b = Xsc_sparse.Stencil.exact_rhs a in
      Printf.printf "27-pt stencil %d^3 (%d unknowns) + modelled syncs on %s:\n" grid
        a.Xsc_sparse.Csr.rows machine;
      List.iter
        (fun v ->
          let r = Xsc_sparse.Cg.solve ~variant:v a b in
          let t =
            Xsc_sparse.Cg.modeled_iteration_time v
              ~network:m.Xsc_simmachine.Machine.network
              ~ranks:m.Xsc_simmachine.Machine.node_count ~spmv_time:5e-5 ~vector_time:1e-5
          in
          Printf.printf "  %-18s %4d iters, %4d syncs, %s/iter (modelled)\n"
            (Xsc_sparse.Cg.variant_name v)
            r.Xsc_sparse.Cg.iterations r.Xsc_sparse.Cg.sync_points (Units.seconds t))
        [ Xsc_sparse.Cg.Classic; Xsc_sparse.Cg.Chronopoulos_gear; Xsc_sparse.Cg.Pipelined ];
      `Ok ()
  in
  Cmd.v (Cmd.info "krylov" ~doc:"Compare CG variants (convergence, syncs, modelled time)")
    Term.(ret (const run $ grid_arg $ machine_arg))

(* ---- scaling ---- *)

let scaling_cmd =
  let local_arg =
    Arg.(value & opt int 64 & info [ "local" ] ~docv:"L" ~doc:"Per-node grid edge (weak scaling).")
  in
  let total_arg =
    Arg.(value & opt int 256 & info [ "total" ] ~docv:"T" ~doc:"Total grid edge (strong scaling).")
  in
  let run machine local total =
    match find_machine machine with
    | Error e -> `Error (false, e)
    | Ok m ->
      Printf.printf "%-8s %10s %10s\n" "nodes" "weak eff" "strong eff";
      List.iter
        (fun nodes ->
          Printf.printf "%-8d %10s %10s\n" nodes
            (Units.percent (Xsc_hpcbench.Scaling.weak_efficiency m ~local ~nodes))
            (Units.percent (Xsc_hpcbench.Scaling.strong_efficiency m ~total ~nodes)))
        [ 1; 8; 64; 512; 4096; 16384 ];
      `Ok ()
  in
  Cmd.v (Cmd.info "scaling" ~doc:"Weak vs strong scaling on a machine preset")
    Term.(ret (const run $ machine_arg $ local_arg $ total_arg))

(* ---- tune ---- *)

let tune_cmd =
  let quick_arg =
    Arg.(value & flag & info [ "quick" ]
           ~doc:"Reduced candidate set and single tile size (CI smoke).")
  in
  let cache_arg =
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"FILE"
           ~doc:"Tuning-cache path (default: $(b,XSC_TUNE_CACHE), else \
                 \\$XDG_CACHE_HOME/xsc/ktune.bin).")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the autotune record as JSON.")
  in
  let force_arg =
    Arg.(value & flag & info [ "force" ]
           ~doc:"Discard any existing cache and re-run the search.")
  in
  let print_entries entries =
    Printf.printf "  %-4s %-9s %-7s %-5s %-8s %12s %12s %8s\n" "prec" "kernel"
      "tile" "pack" "prefetch" "default" "tuned" "speedup";
    List.iter
      (fun e ->
        let mr, nr = Pblas.shapes.(e.Kconfig.cfg.Pblas.shape) in
        Printf.printf "  %-4s %-9s %dx%-5d %-5b %-8b %9.3f GF %9.3f GF %7.2fx\n"
          (Pblas.prec_name e.Kconfig.prec)
          (Pblas.kernel_name e.Kconfig.kernel)
          mr nr e.Kconfig.cfg.Pblas.pack e.Kconfig.cfg.Pblas.prefetch
          (e.Kconfig.default_gflops /. 1.0)
          (e.Kconfig.tuned_gflops /. 1.0)
          (if e.Kconfig.default_gflops > 0.0 then
             e.Kconfig.tuned_gflops /. e.Kconfig.default_gflops
           else 1.0))
      entries
  in
  let run quick cache json force =
    let module KT = Xsc_autotune.Kernel_tune in
    let path = match cache with Some p -> p | None -> Kconfig.default_path () in
    if force && Sys.file_exists path then Sys.remove path;
    let t, evaluations =
      match KT.ensure ~quick ~path () with
      | `Loaded t ->
        Printf.printf "loaded tuning cache %s (tuned in %s, nb=%d):\n" path
          (Units.seconds t.Kconfig.search_seconds)
          t.Kconfig.nb;
        print_entries t.Kconfig.entries;
        (t, 0)
      | `Tuned (t, evaluations) ->
        Printf.printf
          "tuned %d kernel variants in %s (%d evaluations) on %s; nb=%d\n"
          (List.length t.Kconfig.entries)
          (Units.seconds t.Kconfig.search_seconds)
          evaluations t.Kconfig.host_key t.Kconfig.nb;
        print_entries t.Kconfig.entries;
        Printf.printf "cache written to %s\n" path;
        (t, evaluations)
    in
    match json with
    | None -> ()
    | Some file ->
      write_json ~file
        (Json.Obj
           [
             ("host_key", Json.Str t.Kconfig.host_key);
             ("nb", Json.int t.Kconfig.nb);
             ("search_seconds", Json.Num t.Kconfig.search_seconds);
             ("evaluations", Json.int evaluations);
             ( "kernels",
               Json.List (List.map (fun e -> Json.Obj (KT.entry_fields e)) t.Kconfig.entries) );
           ]);
      Printf.printf "autotune record written to %s\n" file
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Autotune the packed microkernels on this host (persisted cache)")
    Term.(const run $ quick_arg $ cache_arg $ json_arg $ force_arg)

(* ---- serve-demo ---- *)

let serve_demo_cmd =
  let count_arg =
    Arg.(value & opt int 200 & info [ "count" ] ~docv:"C" ~doc:"Requests to offer.")
  in
  let rate_arg =
    Arg.(value & opt float 400.0 & info [ "rate" ] ~docv:"HZ"
           ~doc:"Poisson arrival rate (requests per second).")
  in
  let capacity_arg =
    Arg.(value & opt int 64 & info [ "capacity" ] ~docv:"K"
           ~doc:"Admission window: max requests in-system at once.")
  in
  let deadline_arg =
    Arg.(value & opt float 0.05 & info [ "deadline" ] ~docv:"S" ~doc:"Per-request deadline.")
  in
  let storm_arg =
    Arg.(value & opt (some float) None & info [ "storm" ] ~docv:"P"
           ~doc:"Inject faults with probability $(docv) per request \
                 (transient by default: retried with backoff).")
  in
  let permanent_arg =
    Arg.(value & flag & info [ "permanent" ]
           ~doc:"Make --storm faults permanent: targeted requests fail typed \
                 after exhausting retries (pairs with --flight).")
  in
  let trace_arg =
    Arg.(value & opt (some string) None & info [ "trace-json" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace (chrome://tracing): worker queue-wait and \
                 service lanes, plus one causal span lane per request \
                 (retries inlined, parent arrows as flow events).")
  in
  let slo_arg =
    Arg.(value & opt (some float) None & info [ "slo" ] ~docv:"S"
           ~doc:"Attach a latency SLO of $(docv) seconds over every request \
                 class and report its burn rate after the run.")
  in
  let slo_budget_arg =
    Arg.(value & opt float 0.05 & info [ "slo-budget" ] ~docv:"B"
           ~doc:"Error budget for --slo: allowed violating fraction in (0,1].")
  in
  let flight_arg =
    Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE"
           ~doc:"Arm the flight recorder: dump the server's newest span records \
                 to $(docv) on the first permanent request failure or SLO breach, \
                 and again at stop if any request failed (inspect with \
                 $(b,xsc flight --read)).")
  in
  let isolation_arg =
    Arg.(value & flag & info [ "isolation" ]
           ~doc:"Multi-tenant isolation mix: keep one large solve streaming \
                 (closed-loop, one outstanding) beside the Poisson small \
                 load. With $(b,--trace-json) the trace shows task spans of \
                 multiple requests interleaved on one worker lane.")
  in
  let large_n_arg =
    Arg.(value & opt int 512 & info [ "large-n" ] ~docv:"N"
           ~doc:"Problem size of the streaming large solve (with $(b,--isolation)).")
  in
  let mixed_arg =
    Arg.(value & flag & info [ "mixed" ]
           ~doc:"Mixed dense+sparse workload: overlay a bandwidth-bound CG \
                 class (7-pt stencil solves, half the dense rate and count) \
                 on the dense load, with a per-class concurrency cap — the \
                 HPL-vs-HPCG contrast as a serving phenomenon. Pairs with \
                 $(b,--sparse-grid) and \
                 $(b,--sparse-cap).")
  in
  let sparse_grid_arg =
    Arg.(value & opt int 24 & info [ "sparse-grid" ] ~docv:"G"
           ~doc:"Grid edge of the sparse CG class with $(b,--mixed) \
                 ($(docv)^3 unknowns).")
  in
  let sparse_cap_arg =
    Arg.(value & opt int 1 & info [ "sparse-cap" ] ~docv:"L"
           ~doc:"Shared-pool concurrency cap for the sparse class with \
                 $(b,--mixed); 0 lifts the cap (naive co-scheduling, which \
                 lets the bandwidth-bound chains flood the dense tail).")
  in
  let run n workers seed count rate capacity deadline storm permanent trace_json slo
      slo_budget flight isolation large_n mixed sparse_grid sparse_cap =
    let workers = if workers <= 0 then 2 else workers in
    let module Server = Xsc_serve.Server in
    let module Loadgen = Xsc_serve.Loadgen in
    let module Slo = Xsc_serve.Slo in
    let harness =
      Option.map
        (fun p ->
          Xsc_resilience.Harness.create
            { Xsc_resilience.Harness.default with
              seed; p_raise = p; transient = not permanent })
        storm
    in
    let slos =
      match slo with
      | Some latency_s -> [ { Slo.kind = "*"; latency_s; error_budget = slo_budget } ]
      | None -> []
    in
    let class_caps =
      if mixed && sparse_cap > 0 then [ ("cg", sparse_cap) ] else []
    in
    let srv =
      Server.start ?harness
        { Server.default_config with capacity; slos; flight_path = flight;
          dispatch = Server.Shared workers; class_caps }
    in
    let cfg =
      { Loadgen.seed; count; rate_hz = rate; n;
        kinds = [| Loadgen.Spd; Loadgen.General; Loadgen.Product |];
        deadline_s = deadline }
    in
    (* --isolation and --mixed each add one stream beside the dense load *)
    let large =
      { Loadgen.default with seed = 7; count = 1; n = large_n; deadline_s = 5.0 }
    in
    let sparse =
      { Loadgen.seed = seed + 19; count = (count + 1) / 2; rate_hz = rate /. 2.0;
        n = sparse_grid; kinds = [| Loadgen.Cg |]; deadline_s = 5.0 }
    in
    let streams =
      List.concat
        [
          [ ("dense classes", { Loadgen.load = cfg; loop = Loadgen.Open }) ];
          (if isolation then
             [ ( Printf.sprintf "large stream (n=%d, one outstanding)" large_n,
                 { Loadgen.load = large; loop = Loadgen.Closed 1 } ) ]
           else []);
          (if mixed then
             [ ( Printf.sprintf "sparse cg class (%d^3 grid, %d iters max, cap %s)"
                   sparse_grid (30 * sparse_grid)
                   (if sparse_cap > 0 then string_of_int sparse_cap else "off"),
                 { Loadgen.load = sparse; loop = Loadgen.Open } ) ]
           else []);
        ]
    in
    Printf.printf
      "serving %d mixed requests (n=%d) at %.0f req/s on %d shared-pool lanes, window %d:\n"
      count n rate workers capacity;
    (* The trace is written in a [finally] so a run cut short — every
       request typed-rejected by a saturated window, a storm exhausting its
       retries, Ctrl-C'd load — still flushes and closes a complete JSON
       file instead of leaving a truncated trace. *)
    let write_trace () =
      match trace_json with
      | None -> ()
      | Some file ->
        write_file ~file
          (Xsc_runtime.Trace.to_chrome_json ~extra:(Server.span_chrome_events srv)
             (Server.trace srv));
        Printf.printf "trace written to %s\n" file
    in
    Fun.protect
      ~finally:(fun () ->
        Server.stop srv;
        write_trace ())
      (fun () ->
        List.iter2
          (fun (label, _) (r : Loadgen.result) ->
            Printf.printf "%s:\n%s\n" label (Loadgen.report_human r.Loadgen.report))
          streams
          (Loadgen.run srv (List.map snd streams)));
    (match harness with
    | Some h ->
      Printf.printf "fault storm: %d injected raises (%s)\n"
        (Xsc_resilience.Harness.raised h)
        (if permanent then "permanent: typed failures after retry exhaustion"
         else "transient: all retried transparently")
    | None -> ());
    List.iter
      (fun (rep : Slo.report) ->
        Printf.printf
          "slo %s: %d/%d violations, burn rate %.2f (budget %.0f%%)%s\n" rep.Slo.r_kind
          rep.Slo.violations rep.Slo.total rep.Slo.burn_rate
          (100.0 *. rep.Slo.r_error_budget)
          (if rep.Slo.burn_rate > 1.0 then "  ** BREACH **" else ""))
      (Server.slo_reports srv);
    match flight with
    | Some file when Sys.file_exists file ->
      Printf.printf "flight dump written to %s (xsc flight --read %s)\n" file file
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "serve-demo"
       ~doc:"Run the concurrent solver service under a seeded Poisson load")
    Term.(const run $ n_arg 48 $ workers_arg $ seed_arg $ count_arg $ rate_arg
          $ capacity_arg $ deadline_arg $ storm_arg $ permanent_arg $ trace_arg
          $ slo_arg $ slo_budget_arg $ flight_arg $ isolation_arg $ large_n_arg
          $ mixed_arg $ sparse_grid_arg $ sparse_cap_arg)

(* ---- fleet ---- *)

let fleet_cmd =
  let module Sim = Xsc_fleet.Sim in
  let module Scenario = Xsc_fleet.Scenario in
  let nodes_arg =
    Arg.(value & opt int 1000 & info [ "nodes" ] ~docv:"N" ~doc:"Fleet size (nodes).")
  in
  let mtbf_arg =
    Arg.(value & opt float 1000.0 & info [ "mtbf" ] ~docv:"SECONDS"
           ~doc:"Per-node MTBF — the storm knob (accelerated fault \
                 injection; system MTBF is this over the node count).")
  in
  let rate_fleet_arg =
    Arg.(value & opt float 1.25 & info [ "rate" ] ~docv:"RPS"
           ~doc:"Offered Poisson arrival rate, requests/second.")
  in
  let count_fleet_arg =
    Arg.(value & opt int 400 & info [ "count" ] ~docv:"COUNT" ~doc:"Offered requests.")
  in
  let capacity_fleet_arg =
    Arg.(value & opt int 256 & info [ "capacity" ] ~docv:"K"
           ~doc:"Admission window (requests in-system).")
  in
  let batch_arg =
    Arg.(value & opt int 4 & info [ "batch" ] ~docv:"B" ~doc:"Max batch size per class.")
  in
  let cadence_arg =
    Arg.(value & opt string "young" & info [ "cadence" ] ~docv:"CADENCE"
           ~doc:"Checkpoint cadence: young | every-step | never | every:K.")
  in
  let no_abft_arg =
    Arg.(value & flag & info [ "no-abft" ]
           ~doc:"Drop ABFT checksums: no per-step overhead, but tile \
                 corruption escalates to cone replay.")
  in
  let mixed_fleet_arg =
    Arg.(value & flag & info [ "mixed" ]
           ~doc:"Add the bandwidth-costed sparse CG class ($(b,cg-27m)) to \
                 the two dense classes: the HPL-vs-HPCG contrast as fleet \
                 economics (O(n) checkpoint state, memory-bandwidth step \
                 cost).")
  in
  let json_fleet_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the run summary as JSON to $(docv).")
  in
  let trace_fleet_arg =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write the storm's simulated spans (requests and recovery \
                 rungs, simulated time) as a Chrome trace to $(docv).")
  in
  let run nodes mtbf rate count capacity batch cadence no_abft mixed seed json trace =
    let cadence =
      match String.lowercase_ascii cadence with
      | "young" -> Ok Sim.Young
      | "every-step" -> Ok Sim.Every_step
      | "never" -> Ok Sim.Never
      | s when String.length s > 6 && String.sub s 0 6 = "every:" -> (
        match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
        | Some k when k >= 1 -> Ok (Sim.Every k)
        | _ -> Error (Printf.sprintf "bad cadence %S" s))
      | s -> Error (Printf.sprintf "unknown cadence %S (young | every-step | never | every:K)" s)
    in
    match cadence with
    | Error e ->
      Printf.eprintf "fleet: %s\n" e;
      exit 2
    | Ok cadence -> (
      let cfg =
        try
          Ok
            (Scenario.config ~cadence ~abft:(not no_abft) ~capacity
               ~max_batch:batch ~spans:(trace <> None)
               ~classes:(if mixed then Scenario.mixed_classes
                         else Scenario.default_classes)
               ~nodes ~node_mtbf:mtbf ~rate_hz:rate ~count ~seed ())
        with Invalid_argument m -> Error m
      in
      match cfg with
      | Error m ->
        Printf.eprintf "fleet: %s\n" m;
        exit 2
      | Ok cfg ->
        let r = try Ok (Sim.run cfg) with Invalid_argument m -> Error m in
        (match r with
        | Error m ->
          Printf.eprintf "fleet: %s\n" m;
          exit 2
        | Ok r ->
          let c = r.Sim.counters in
          let m = cfg.Sim.machine in
          Printf.printf "fleet: %d nodes, node MTBF %s (system MTBF %s), %d req @ %.2f rps\n"
            nodes
            (Units.seconds mtbf)
            (Units.seconds (Xsc_simmachine.Machine.system_mtbf m))
            count rate;
          Printf.printf "  makespan %.1f s  goodput %.3f rps  availability %.1f%%  util %.0f%%\n"
            r.Sim.makespan_s r.Sim.goodput_rps
            (100.0 *. r.Sim.availability)
            (100.0 *. r.Sim.util);
          Printf.printf "  latency p50 %.1f s  p99 %.1f s\n" (r.Sim.p50_ms /. 1e3)
            (r.Sim.p99_ms /. 1e3);
          Printf.printf
            "  outcomes: %d on-time, %d late, %d recovery-rejected, %d admission-rejected\n"
            c.Sim.on_time
            (c.Sim.completed - c.Sim.on_time)
            c.Sim.rejected_recovery c.Sim.rejected_admission;
          Printf.printf
            "  failures: %d injected (%d busy) -> %d abft repairs, %d cone replays, \
             %d restarts, %d rejects; %d idle hits\n"
            c.Sim.failures_total c.Sim.failures_busy c.Sim.abft_repairs
            c.Sim.cone_replays c.Sim.restarts c.Sim.reject_hits c.Sim.failures_idle;
          List.iter
            (fun (cls, k) ->
              Printf.printf "  cadence %s: %s\n" cls
                (if k = 0 then "never" else Printf.sprintf "every %d steps" k))
            r.Sim.young_by_class;
          Printf.printf "  lattice reconciles: %b   replay hash %Lx\n"
            (Sim.reconciles c) r.Sim.outcome_hash;
          if r.Sim.wedged then Printf.printf "  ** WEDGED: horizon hit before all requests settled **\n";
          (match json with
          | Some file ->
            write_json ~file (Json.Obj (Sim.summary_fields cfg r));
            Printf.printf "wrote %s\n" file
          | None -> ());
          match trace with
          | Some file ->
            write_file ~file (Xsc_obs.Span.to_chrome_json ~origin_ns:0 r.Sim.sim_spans);
            Printf.printf "wrote %s (%d simulated spans)\n" file
              (List.length r.Sim.sim_spans)
          | None -> ()))
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Simulate the solver service on a failing fleet: real \
             admission/batching/EDF policies, Poisson failure storm, \
             ABFT/cone/restart/reject recovery lattice — seeded and \
             bitwise-replayable")
    Term.(const run $ nodes_arg $ mtbf_arg $ rate_fleet_arg $ count_fleet_arg
          $ capacity_fleet_arg $ batch_arg $ cadence_arg $ no_abft_arg
          $ mixed_fleet_arg $ seed_arg $ json_fleet_arg $ trace_fleet_arg)

(* ---- flight ---- *)

let flight_cmd =
  let module Flight = Xsc_resilience.Flight in
  let read_arg =
    Arg.(required & opt (some string) None & info [ "read" ] ~docv:"FILE"
           ~doc:"Parse and CRC-verify a flight dump, then print the per-request \
                 span chains (torn or corrupt files are rejected typed).")
  in
  let run file =
    match Flight.read file with
    | Ok d -> Format.printf "%a@?" Flight.pp_dump d
    | Error e ->
      Printf.eprintf "flight: %s: %s\n" file (Xsc_resilience.Checkpoint.describe_error e);
      exit 1
  in
  Cmd.v
    (Cmd.info "flight" ~doc:"Inspect a crash flight recorder dump (CRC-headed span records)")
    Term.(const run $ read_arg)

let () =
  (* Pick up this host's kernel-tuning cache (written by [xsc tune]) so
     every subcommand runs the tuned microkernels; on any load error the
     compiled-in defaults stay installed. *)
  ignore (Kconfig.autoload () : bool);
  let info =
    Cmd.info "xsc" ~version:"1.0.0"
      ~doc:"Extreme-scale computing library: tiled DAG solvers, simulated machines, benchmarks"
  in
  let group =
    Cmd.group info
      [ machines_cmd; solve_cmd; simulate_cmd; hpl_cmd; hpcg_cmd; top500_cmd; checkpoint_cmd;
        krylov_cmd; scaling_cmd; tune_cmd; serve_demo_cmd; fleet_cmd; flight_cmd ]
  in
  exit (Cmd.eval group)
