(* Benchmark harness: regenerates every figure and table of the reproduced
   evaluation (see DESIGN.md section 4 for the experiment index).

   Usage:
     dune exec bench/main.exe                 # run everything
     dune exec bench/main.exe -- fig3 tab1    # run a subset
     dune exec bench/main.exe -- --list       # show experiment ids
     dune exec bench/main.exe -- --json FILE  # machine-readable perf record
     dune exec bench/main.exe -- --smoke FILE # CI perf-sanity subset (record-only)
     dune exec bench/main.exe -- --trace FILE # Chrome trace of a real DAG run
     dune exec bench/main.exe -- --overhead [PCT]  # tracing cost (gate if PCT)
     dune exec bench/main.exe -- --serve-overhead [PCT] # spans-on serving cost
     dune exec bench/main.exe -- --faults [SEED]   # seeded fault storm + recovery
     dune exec bench/main.exe -- --serve FILE # every serving phase: load, storms,
                                              # isolation, mixed; latency gates
     dune exec bench/main.exe -- --fleet FILE # simulated-fleet failure-storm record
     dune exec bench/main.exe -- --fleet --smoke FILE # CI-sized fleet record *)

let experiments =
  [
    ("fig1", "Top500 performance development and projection", Fig1_top500.run);
    ("fig2", "peak vs HPL vs HPCG", Fig2_hpl_hpcg.run);
    ("fig3", "fork-join vs DAG scheduling", Fig3_sched.run);
    ("fig4", "mixed-precision iterative refinement", Fig4_mixed.run);
    ("fig5", "communication-avoiding algorithms", Fig5_comm.run);
    ("fig6", "resilience: checkpointing and ABFT", Fig6_resilience.run);
    ("fig7", "heterogeneous workers: BSP vs DAG (extension)", Fig7_hetero.run);
    ("tab1", "autotuning the tile size", Tab1_autotune.run);
    ("tab2", "reproducible reductions", Tab2_repro.run);
    ("tab3", "strong scaling on the simulated machine", Tab3_scaling.run);
    ("tab4", "power wall and energy to solution (extension)", Tab4_energy.run);
    ("tab5", "batched small factorizations (extension)", Tab5_batched.run);
    ("tab6", "weak vs strong scaling (extension)", Tab6_weak.run);
    ("micro", "bechamel kernel microbenchmarks", Micro.run);
  ]

(* Every FILE mode writes its record after the whole run: fail before the
   run, not after it, when the file cannot be created. *)
let writable file =
  try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 file)
  with Sys_error e ->
    Printf.eprintf "cannot write %s: %s\n" file e;
    exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--list" ] ->
    List.iter (fun (id, desc, _) -> Printf.printf "%-6s %s\n" id desc) experiments
  | [ "--json"; file ] ->
    writable file;
    Bench_json.run ~file
  | [ "--json" ] ->
    Printf.eprintf "--json requires an output file argument\n";
    exit 1
  | [ "--smoke"; file ] ->
    writable file;
    Bench_json.smoke ~file
  | [ "--smoke" ] ->
    Printf.eprintf "--smoke requires an output file argument\n";
    exit 1
  | [ "--trace"; file ] ->
    writable file;
    Trace_run.run ~file
  | [ "--trace" ] ->
    Printf.eprintf "--trace requires an output file argument\n";
    exit 1
  | [ "--overhead" ] -> Overhead.run ~threshold:None
  | [ "--overhead"; pct ] -> (
    match float_of_string_opt pct with
    | Some t -> Overhead.run ~threshold:(Some t)
    | None ->
      Printf.eprintf "--overhead: %S is not a number\n" pct;
      exit 1)
  | [ "--serve-overhead" ] -> Overhead.run_serve ~threshold:None
  | [ "--serve-overhead"; pct ] -> (
    match float_of_string_opt pct with
    | Some t -> Overhead.run_serve ~threshold:(Some t)
    | None ->
      Printf.eprintf "--serve-overhead: %S is not a number\n" pct;
      exit 1)
  | [ "--serve"; file ] ->
    writable file;
    Serve_run.run ~file
  | [ "--serve" ] ->
    Printf.eprintf "--serve requires an output file argument\n";
    exit 1
  | [ "--fleet"; "--smoke"; file ] ->
    writable file;
    Fleet_run.smoke ~file
  | [ "--fleet"; "--smoke" ] | [ "--fleet" ] ->
    Printf.eprintf "--fleet requires an output file argument\n";
    exit 1
  | [ "--fleet"; file ] ->
    writable file;
    Fleet_run.run ~file
  | [ "--faults" ] -> Faults_run.run ~seed:1
  | [ "--faults"; seed ] -> (
    match int_of_string_opt seed with
    | Some s -> Faults_run.run ~seed:s
    | None ->
      Printf.eprintf "--faults: %S is not an integer seed\n" seed;
      exit 1)
  | [] ->
    Printf.printf "reproduction benchmarks: %d experiments (see DESIGN.md)\n" (List.length experiments);
    List.iter (fun (_, _, run) -> run ()) experiments
  | ids ->
    List.iter
      (fun id ->
        match List.find_opt (fun (eid, _, _) -> eid = id) experiments with
        | Some (_, _, run) -> run ()
        | None ->
          Printf.eprintf "unknown experiment %S (use --list)\n" id;
          exit 1)
      ids
