(* Fault-storm tests for Xsc_core.Ft: seeded runtime fault injection over
   real executor runs of packed tiled Cholesky, with ABFT detection,
   bitwise cone-replay repair, and checkpoint/restart.

   The whole suite runs under a watchdog domain: a deadlocked executor (the
   bug class the exception-safe abort path exists to prevent) would hang CI
   forever without it — the watchdog turns a hang into a hard exit 124. *)

open Xsc_linalg
module PD = Xsc_tile.Packed.D
module Ft = Xsc_core.Ft
module Harness = Xsc_resilience.Harness
module Rng = Xsc_util.Rng
module Runtime_api = Xsc_core.Runtime_api
module Real_exec = Xsc_runtime.Real_exec

let watchdog_done = Atomic.make false

let spawn_watchdog ~seconds =
  Domain.spawn (fun () ->
      let left = ref seconds in
      while (not (Atomic.get watchdog_done)) && !left > 0.0 do
        Unix.sleepf 0.25;
        left := !left -. 0.25
      done;
      if not (Atomic.get watchdog_done) then begin
        prerr_endline "test_ft: WATCHDOG TIMEOUT — an executor run failed to terminate";
        exit 124
      end)

let spd_packed seed n nb =
  let rng = Rng.create seed in
  PD.of_mat ~nb (Mat.random_spd rng n)

let buf_equal (a : PD.t) (b : PD.t) =
  let da = a.PD.buf and db = b.PD.buf in
  let dim = Bigarray.Array1.dim da in
  let rec go i =
    i >= dim
    || (Int64.equal (Int64.bits_of_float da.{i}) (Int64.bits_of_float db.{i}) && go (i + 1))
  in
  Bigarray.Array1.dim db = dim && go 0

let max_abs_diff (a : PD.t) (b : PD.t) =
  let d = ref 0.0 in
  for i = 0 to Bigarray.Array1.dim a.PD.buf - 1 do
    let x = abs_float (a.PD.buf.{i} -. b.PD.buf.{i}) in
    if x > !d then d := x
  done;
  !d

(* factored references, computed once per geometry *)
let fixture ~seed n nb =
  let pristine = spd_packed seed n nb in
  let reference = PD.copy pristine in
  PD.potrf reference;
  (pristine, reference)

let chol_432_48 = lazy (fixture ~seed:101 432 48)
let chol_432_72 = lazy (fixture ~seed:101 432 72)
let chol_216_72 = lazy (fixture ~seed:131 216 72)

(* ---- clean runs: the FT driver is the plain factorization, bitwise ---- *)

let test_clean_cholesky_bitwise () =
  List.iter
    (fun lz ->
      let pristine, reference = Lazy.force lz in
      let p = PD.copy pristine in
      let r = Ft.potrf_ft p in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d nb=%d bitwise" p.PD.n p.PD.nb)
        true (buf_equal p reference);
      Alcotest.(check int) "nothing detected" 0 r.Ft.detected;
      Alcotest.(check int) "nothing repaired" 0 r.Ft.repaired_tiles;
      Alcotest.(check int) "no restarts" 0 r.Ft.restarts)
    [ chol_432_48; chol_432_72; chol_216_72 ]

(* ---- the acceptance storm: >= 50 seeded corruption runs at n = 432 ----

   Every injected silent corruption must be detected by the in-DAG
   checksums and repaired by cone replay; because replay recomputes the
   clean kernel sequence exactly, the repaired factor must be bitwise
   identical to a fault-free factorization (backward error 0 <= 1e-12). *)

let corruption_storm_runs = 26 (* per block size; 52 total *)

let test_corruption_storm () =
  let total = ref 0 in
  List.iter
    (fun lz ->
      let pristine, reference = Lazy.force lz in
      let nb = pristine.PD.nb in
      for seed = 1 to corruption_storm_runs do
        let p = PD.copy pristine in
        let h =
          Harness.create { Harness.default with seed; p_corrupt = 0.12; magnitude = 1.0 }
        in
        let r = Ft.potrf_ft ~harness:h p in
        let injected = Harness.corrupted h in
        if injected > 0 && r.Ft.detected = 0 then
          Alcotest.failf "seed %d nb %d: %d corruptions escaped detection" seed nb injected;
        if not (buf_equal p reference) then
          Alcotest.failf "seed %d nb %d: repaired factor differs from clean run (max diff %g)"
            seed nb (max_abs_diff p reference);
        total := !total + injected
      done)
    [ chol_432_48; chol_432_72 ];
  (* the probabilities make a fault-free storm astronomically unlikely; a
     zero here means the harness is not firing at all *)
  Alcotest.(check bool)
    (Printf.sprintf "storm injected faults (%d)" !total)
    true (!total > 100)

(* ---- exception storms: crashes must terminate, never deadlock ---- *)

let exception_storm_one ~exec ~exact ~seed =
  let pristine, reference = Lazy.force chol_432_72 in
  let p = PD.copy pristine in
  let h = Harness.create { Harness.default with seed; p_raise = 0.08; magnitude = 1.0 } in
  let r = Ft.potrf_ft ~exec ~harness:h p in
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: bitwise after %d restarts" seed r.Ft.restarts)
    true (buf_equal p reference);
  if exact then
    (* sequential runs abort at the first raise, so raises and restarts
       pair up exactly; parallel workers can each raise before the abort
       flag propagates, so there restarts <= raises *)
    Alcotest.(check int)
      (Printf.sprintf "seed %d: one restart per raise" seed)
      (Harness.raised h) r.Ft.restarts
  else
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: restarts (%d) <= raises (%d)" seed r.Ft.restarts
         (Harness.raised h))
      true
      (r.Ft.restarts <= Harness.raised h)

let test_exception_storm_sequential () =
  for seed = 1 to 8 do
    exception_storm_one ~exec:Runtime_api.Sequential ~exact:true ~seed
  done

let test_exception_storm_dataflow () =
  for seed = 1 to 5 do
    exception_storm_one ~exec:(Runtime_api.Dataflow 2) ~exact:false ~seed
  done

let test_exception_storm_forkjoin () =
  for seed = 1 to 5 do
    exception_storm_one ~exec:(Runtime_api.Forkjoin 2) ~exact:false ~seed
  done

(* The shared task pool as the FT executor: one long-lived pool serves
   every step sub-DAG of every restart, and ABFT cone replay on top of it
   still lands bitwise — including across injected exceptions, where the
   per-job abort must not poison later submissions to the same pool. *)
let test_clean_pooled_bitwise () =
  let pool = Xsc_runtime.Pool.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Xsc_runtime.Pool.shutdown pool)
    (fun () ->
      let pristine, reference = Lazy.force chol_216_72 in
      let p = PD.copy pristine in
      let r = Ft.potrf_ft ~exec:(Runtime_api.Pooled pool) p in
      Alcotest.(check bool) "bitwise" true (buf_equal p reference);
      Alcotest.(check int) "nothing detected" 0 r.Ft.detected;
      Alcotest.(check int) "no restarts" 0 r.Ft.restarts)

let test_exception_storm_pooled () =
  let pool = Xsc_runtime.Pool.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Xsc_runtime.Pool.shutdown pool)
    (fun () ->
      for seed = 1 to 5 do
        exception_storm_one ~exec:(Runtime_api.Pooled pool) ~exact:false ~seed
      done)

let test_corruption_storm_pooled () =
  let pool = Xsc_runtime.Pool.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Xsc_runtime.Pool.shutdown pool)
    (fun () ->
      let pristine, reference = Lazy.force chol_216_72 in
      let total = ref 0 in
      for seed = 1 to 8 do
        let p = PD.copy pristine in
        let h =
          Harness.create { Harness.default with seed; p_corrupt = 0.12; magnitude = 1.0 }
        in
        let r = Ft.potrf_ft ~exec:(Runtime_api.Pooled pool) ~harness:h p in
        let injected = Harness.corrupted h in
        if injected > 0 && r.Ft.detected = 0 then
          Alcotest.failf "seed %d: %d corruptions escaped detection on the pool" seed
            injected;
        if not (buf_equal p reference) then
          Alcotest.failf "seed %d: pooled replayed factor differs from clean run" seed;
        total := !total + injected
      done;
      Alcotest.(check bool)
        (Printf.sprintf "pooled storm injected faults (%d)" !total)
        true (!total > 0))

(* combined raises + corruption, still bitwise *)
let test_mixed_storm () =
  let pristine, reference = Lazy.force chol_432_72 in
  for seed = 1 to 10 do
    let p = PD.copy pristine in
    let h =
      Harness.create
        { Harness.default with seed; p_raise = 0.05; p_corrupt = 0.10; magnitude = 1.0 }
    in
    let r = Ft.potrf_ft ~harness:h p in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: bitwise (detected %d, restarts %d)" seed r.Ft.detected
         r.Ft.restarts)
      true (buf_equal p reference)
  done

(* a permanent (non-transient) raise exhausts max_restarts and fail-stops *)
let test_fail_stop_after_max_restarts () =
  let p = spd_packed 113 144 48 in
  let h =
    Harness.create { Harness.default with seed = 1; p_raise = 1.0; transient = false }
  in
  match Ft.potrf_ft ~harness:h ~max_restarts:3 p with
  | _ -> Alcotest.fail "expected Task_failed after exhausting restarts"
  | exception Real_exec.Task_failed f ->
    Alcotest.(check bool) "failure carries the task name" true
      (String.length f.Real_exec.failed_name > 0)

(* ---- checkpoint/restart ---- *)

(* run with max_restarts:0 until a seed fails after at least one checkpoint
   was persisted; returns that harness for the resume leg *)
let fail_after_checkpoint ~pristine ~checkpoint ~path =
  let rec attempt seed =
    if seed > 300 then
      Alcotest.fail "no seed produced a mid-run failure after a checkpoint"
    else begin
      let p = PD.copy pristine in
      let h = Harness.create { Harness.default with seed; p_raise = 0.04; magnitude = 1.0 } in
      match Ft.potrf_ft ?checkpoint ~max_restarts:0 ~harness:h p with
      | _ ->
        (* no raise fired for this seed: clean completion removed the file *)
        attempt (seed + 1)
      | exception Real_exec.Task_failed _ ->
        if Sys.file_exists path then h else attempt (seed + 1)
    end
  in
  attempt 1

let test_checkpoint_resume () =
  let pristine, reference = Lazy.force chol_432_72 in
  let path = Filename.temp_file "xsc_ft_ckpt" ".bin" in
  Sys.remove path;
  let checkpoint = Some { Ft.path = Some path; every = 1 } in
  let h = fail_after_checkpoint ~pristine ~checkpoint ~path in
  (* resume: fresh copy of the same input, same harness (transient raises
     that already fired run clean on replay) *)
  let p = PD.copy pristine in
  let r = Ft.potrf_ft ?checkpoint ~harness:h p in
  Alcotest.(check bool) "resumed from the checkpoint" true r.Ft.resumed;
  Alcotest.(check bool) "bitwise after resume" true (buf_equal p reference);
  Alcotest.(check bool) "checkpoint consumed on success" false (Sys.file_exists path)

let test_checkpoint_foreign_matrix_rejected () =
  let pristine, _ = Lazy.force chol_432_72 in
  let path = Filename.temp_file "xsc_ft_ckpt2" ".bin" in
  Sys.remove path;
  let checkpoint = Some { Ft.path = Some path; every = 1 } in
  ignore (fail_after_checkpoint ~pristine ~checkpoint ~path);
  (* resuming with a different matrix must be rejected by the fingerprint *)
  let pb_pristine, pb_reference = Lazy.force chol_216_72 in
  let pb = PD.copy pb_pristine in
  let r = Ft.potrf_ft ?checkpoint pb in
  Alcotest.(check bool) "foreign checkpoint not resumed" false r.Ft.resumed;
  Alcotest.(check bool) "correct result anyway" true (buf_equal pb pb_reference);
  if Sys.file_exists path then Sys.remove path

let () =
  let watchdog = spawn_watchdog ~seconds:480.0 in
  let finally () =
    Atomic.set watchdog_done true;
    Domain.join watchdog
  in
  Fun.protect ~finally (fun () ->
      Alcotest.run ~and_exit:false "xsc_ft"
        [
          ( "clean",
            [
              Alcotest.test_case "cholesky bitwise" `Quick test_clean_cholesky_bitwise;
            ] );
          ( "corruption storm",
            [
              Alcotest.test_case "52 seeded runs, n=432, nb in {48,72}" `Quick
                test_corruption_storm;
            ] );
          ( "exception storm",
            [
              Alcotest.test_case "sequential" `Quick test_exception_storm_sequential;
              Alcotest.test_case "dataflow" `Quick test_exception_storm_dataflow;
              Alcotest.test_case "forkjoin" `Quick test_exception_storm_forkjoin;
              Alcotest.test_case "shared pool: clean bitwise" `Quick
                test_clean_pooled_bitwise;
              Alcotest.test_case "shared pool: exception storm" `Quick
                test_exception_storm_pooled;
              Alcotest.test_case "shared pool: corruption storm + ABFT replay" `Quick
                test_corruption_storm_pooled;
              Alcotest.test_case "mixed raise+corrupt" `Quick test_mixed_storm;
              Alcotest.test_case "fail-stop after max restarts" `Quick
                test_fail_stop_after_max_restarts;
            ] );
          ( "checkpoint",
            [
              Alcotest.test_case "mid-run failure resumes from disk" `Quick
                test_checkpoint_resume;
              Alcotest.test_case "foreign matrix rejected" `Quick
                test_checkpoint_foreign_matrix_rejected;
            ] );
        ])
