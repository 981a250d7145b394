(* Tests for Xsc_resilience: Young/Daly checkpointing, ABFT checksums,
   fault injection, the runtime fault harness, checkpoint file hardening. *)

open Xsc_linalg
module Checkpoint = Xsc_resilience.Checkpoint
module Flight = Xsc_resilience.Flight
module Span = Xsc_obs.Span
module Abft = Xsc_resilience.Abft
module Inject = Xsc_resilience.Inject
module Harness = Xsc_resilience.Harness
module Task = Xsc_runtime.Task
module PkD = Xsc_tile.Packed.D
module PkS = Xsc_tile.Packed.S
module Rng = Xsc_util.Rng

let qcheck tc = QCheck_alcotest.to_alcotest tc

let counter_value name =
  match List.assoc_opt name (Xsc_obs.Metrics.snapshot ()) with
  | Some (Xsc_obs.Metrics.Counter n) -> n
  | _ -> 0

let params = { Checkpoint.work = 7200.0; checkpoint_cost = 15.0; restart_cost = 60.0; mtbf = 1800.0 }

(* ---- Checkpoint ---- *)

let test_young_formula () =
  Alcotest.(check (float 1e-9)) "sqrt(2CM)"
    (sqrt (2.0 *. 15.0 *. 1800.0))
    (Checkpoint.young_interval params)

let test_daly_close_to_young_when_c_small () =
  let p = { params with checkpoint_cost = 1.0; mtbf = 1e6 } in
  let young = Checkpoint.young_interval p and daly = Checkpoint.daly_interval p in
  Alcotest.(check bool) "within 2%" true (abs_float (daly -. young) /. young < 0.02)

let test_expected_time_exceeds_work () =
  let t = Checkpoint.expected_time params ~interval:(Checkpoint.daly_interval params) in
  Alcotest.(check bool) "overhead positive" true (t > params.Checkpoint.work)

let test_checkpoint_save_load_roundtrip () =
  let rng = Rng.create 31 in
  let m = Mat.random rng 17 23 in
  let path = Filename.temp_file "xsc_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let writes0 = counter_value "checkpoint.writes" in
      let bytes = Checkpoint.save path m in
      Alcotest.(check bool) "non-trivial size" true (bytes > 17 * 23 * 8 / 2);
      Alcotest.(check int) "size matches the file" bytes
        (let ic = open_in_bin path in
         let n = in_channel_length ic in
         close_in ic;
         n);
      (match Checkpoint.load path with
      | Error e -> Alcotest.failf "load failed: %s" (Checkpoint.describe_error e)
      | Ok m' ->
        Alcotest.(check bool) "round-trips bitwise" true
          (m'.Mat.rows = m.Mat.rows && m'.Mat.cols = m.Mat.cols && m'.Mat.data = m.Mat.data));
      Alcotest.(check int) "write counted" (writes0 + 1) (counter_value "checkpoint.writes"))

let test_expected_time_convex_minimum () =
  (* the optimum beats both a too-short and a too-long interval *)
  let tau = Checkpoint.daly_interval params in
  let at x = Checkpoint.expected_time params ~interval:x in
  Alcotest.(check bool) "beats tau/8" true (at tau < at (tau /. 8.0));
  Alcotest.(check bool) "beats 8 tau" true (at tau < at (8.0 *. tau))

let test_simulation_matches_model () =
  let rng = Rng.create 42 in
  let tau = Checkpoint.daly_interval params in
  let sim = Checkpoint.simulate_mean ~runs:400 rng params ~interval:tau in
  let model = Checkpoint.expected_time params ~interval:tau in
  Alcotest.(check bool)
    (Printf.sprintf "sim %.0f within 15%% of model %.0f" sim model)
    true
    (abs_float (sim -. model) /. model < 0.15)

let test_simulation_minimum_near_daly () =
  (* simulated time at the Daly interval beats far-off intervals *)
  let rng = Rng.create 43 in
  let tau = Checkpoint.daly_interval params in
  let at x = Checkpoint.simulate_mean ~runs:300 rng params ~interval:x in
  let t_opt = at tau in
  Alcotest.(check bool) "beats tau/8" true (t_opt < at (tau /. 8.0));
  Alcotest.(check bool) "beats 8 tau" true (t_opt < at (8.0 *. tau))

let test_simulate_no_failures_limit () =
  (* with an enormous MTBF the run is just work + checkpoints *)
  let p = { params with mtbf = 1e15 } in
  let rng = Rng.create 44 in
  let t = Checkpoint.simulate rng p ~interval:720.0 in
  let segments = 7200.0 /. 720.0 in
  let expected = 7200.0 +. ((segments -. 1.0) *. 15.0) in
  Alcotest.(check (float 1.0)) "work + C per non-final segment" expected t

let test_efficiency_bounds () =
  let e = Checkpoint.efficiency params ~interval:(Checkpoint.daly_interval params) in
  Alcotest.(check bool) "in (0,1)" true (e > 0.0 && e < 1.0)

let test_checkpoint_validation () =
  Alcotest.check_raises "bad params" (Invalid_argument "Checkpoint: invalid parameters")
    (fun () -> ignore (Checkpoint.young_interval { params with mtbf = 0.0 }));
  Alcotest.check_raises "bad interval"
    (Invalid_argument "Checkpoint.expected_time: interval must be positive") (fun () ->
      ignore (Checkpoint.expected_time params ~interval:0.0))

(* ---- ABFT gemm ---- *)

let test_gemm_protected_clean () =
  let rng = Rng.create 1 in
  let a = Mat.random rng 8 6 and b = Mat.random rng 6 10 in
  let p = Abft.gemm_protected a b in
  Alcotest.(check (list (pair int int))) "no mismatches" [] (Abft.verify_product p);
  Alcotest.(check bool) "decodes to the product" true
    (Mat.approx_equal ~tol:1e-10 (Blas.gemm_new a b) (Abft.decode_product p))

let prop_gemm_single_error_corrected =
  QCheck.Test.make ~name:"single corrupted entry is located and corrected" ~count:50
    QCheck.(triple (int_range 0 7) (int_range 0 9) (float_range 0.5 100.0))
    (fun (i, j, delta) ->
      let rng = Rng.create ((i * 11) + j) in
      let a = Mat.random rng 8 6 and b = Mat.random rng 6 10 in
      let p = Abft.gemm_protected a b in
      Inject.corrupt_entry p.Abft.full i j ~delta;
      let located = Abft.verify_product p in
      let fixed = Abft.correct_product p in
      located = [ (i, j) ] && fixed = 1
      && Mat.approx_equal ~tol:1e-8 (Blas.gemm_new a b) (Abft.decode_product p))

let test_gemm_two_errors_distinct_rows_cols () =
  let rng = Rng.create 3 in
  let a = Mat.random rng 8 6 and b = Mat.random rng 6 10 in
  let p = Abft.gemm_protected a b in
  Inject.corrupt_entry p.Abft.full 1 2 ~delta:5.0;
  Inject.corrupt_entry p.Abft.full 4 7 ~delta:(-3.0);
  (* the row/col intersection now has 4 candidates; only the 2 real ones
     show matching row/col discrepancies and get fixed *)
  let fixed = Abft.correct_product p in
  Alcotest.(check int) "both corrected" 2 fixed;
  Alcotest.(check bool) "product restored" true
    (Mat.approx_equal ~tol:1e-8 (Blas.gemm_new a b) (Abft.decode_product p))

let test_gemm_correct_noop_when_clean () =
  let rng = Rng.create 4 in
  let a = Mat.random rng 5 5 and b = Mat.random rng 5 5 in
  let p = Abft.gemm_protected a b in
  Alcotest.(check int) "nothing to fix" 0 (Abft.correct_product p)

(* ---- ABFT cholesky ---- *)

let chol_fixture seed n =
  let rng = Rng.create seed in
  let a = Mat.random_spd rng n in
  let f = Mat.copy a in
  Lapack.potrf f;
  (a, Mat.lower f)

let test_verify_cholesky_clean () =
  let a, l = chol_fixture 5 24 in
  Alcotest.(check (option int)) "clean factor passes" None (Abft.verify_cholesky ~l a)

let prop_cholesky_corruption_detected_and_recovered =
  QCheck.Test.make ~name:"corrupted L entry detected at row <= j, lineage-recovered"
    ~count:30
    QCheck.(pair (int_range 1 23) (float_range 0.01 10.0))
    (fun (i, delta) ->
      let a, l = chol_fixture 7 24 in
      let j = i / 2 in
      Inject.corrupt_entry l i j ~delta;
      match Abft.verify_cholesky ~l a with
      | None -> false
      | Some row ->
        row <= j
        && begin
             Abft.recover_cholesky_rows ~a ~l ~from:row;
             Abft.verify_cholesky ~l a = None
           end)

let test_cholesky_bitflip_detected () =
  let a, l = chol_fixture 9 16 in
  let rng = Rng.create 77 in
  (* low-order flips fall below the numerical detection threshold, so the
     guarantee is that flips of consequential bits are caught: succeed if
     any flip within the attempt budget is detected *)
  let flip_mantissa_bit m =
    let i = Rng.int rng m.Mat.rows and j = Rng.int rng m.Mat.cols in
    let bit = Rng.int rng 51 in
    Mat.set m i j (Int64.float_of_bits (Int64.logxor (Int64.bits_of_float (Mat.get m i j)) (Int64.shift_left 1L bit)))
  in
  let rec try_flip attempts =
    if attempts = 0 then false
    else begin
      let l' = Mat.copy l in
      flip_mantissa_bit l';
      Abft.verify_cholesky ~l:l' a <> None || try_flip (attempts - 1)
    end
  in
  Alcotest.(check bool) "a significant bit flip is caught" true (try_flip 50)

let test_recover_rows_full_refactor () =
  (* recovery from row 0 recomputes the entire factor *)
  let a, l = chol_fixture 11 16 in
  let damaged = Mat.map (fun _ -> 0.0) l in
  Abft.recover_cholesky_rows ~a ~l:damaged ~from:0;
  Alcotest.(check bool) "matches potrf" true (Mat.approx_equal ~tol:1e-8 l damaged)

let test_overhead_model () =
  (* one extra checksum tile row/col on an nt x nt tiled matrix *)
  Alcotest.(check bool) "shrinks with nt" true
    (Abft.overhead_model ~n:4096 ~nb:128 < Abft.overhead_model ~n:1024 ~nb:128);
  Alcotest.(check bool) "small at scale" true (Abft.overhead_model ~n:8192 ~nb:128 < 0.05)

(* ---- Inject ---- *)

let test_corrupt_lower_entry () =
  let rng = Rng.create 23 in
  for _ = 1 to 50 do
    let m = Mat.create 8 8 in
    let i, j = Inject.corrupt_lower_entry rng m ~magnitude:1.0 in
    Alcotest.(check bool) "strictly lower" true (i > j)
  done

(* ---- ABFT recovery edge cases ---- *)

(* Recover until verification passes; [recover_*_rows ~from] recomputes a
   suffix of rows, so one pass from the first bad row should suffice — the
   budgeted loop keeps the test honest either way. *)
let recover_until_clean ~budget verify recover =
  let rec go budget =
    match verify () with
    | None -> ()
    | Some row ->
      if budget = 0 then Alcotest.fail "recovery did not converge";
      recover row;
      go (budget - 1)
  in
  go budget

let test_recover_cholesky_last_row () =
  let a, l = chol_fixture 13 16 in
  let damaged = Mat.copy l in
  Inject.corrupt_entry damaged 15 15 ~delta:3.0;
  recover_until_clean ~budget:2
    (fun () -> Abft.verify_cholesky ~l:damaged a)
    (fun row -> Abft.recover_cholesky_rows ~a ~l:damaged ~from:row);
  Alcotest.(check bool) "last diagonal entry recovered" true
    (Mat.approx_equal ~tol:1e-8 l damaged)

let test_recover_cholesky_multiple_rows () =
  let a, l = chol_fixture 17 20 in
  let damaged = Mat.copy l in
  Inject.corrupt_entry damaged 4 2 ~delta:2.0;
  Inject.corrupt_entry damaged 11 9 ~delta:(-4.0);
  Inject.corrupt_entry damaged 19 16 ~delta:1.5;
  recover_until_clean ~budget:4
    (fun () -> Abft.verify_cholesky ~l:damaged a)
    (fun row -> Abft.recover_cholesky_rows ~a ~l:damaged ~from:row);
  Alcotest.(check bool) "all three rows recovered" true
    (Mat.approx_equal ~tol:1e-8 l damaged)

(* ---- packed-storage inject ---- *)

let test_packed_inject_entry () =
  let p = PkD.create ~n:18 ~nb:6 in
  let injected0 = counter_value "resilience.faults_injected" in
  Inject.corrupt_packed_entry p 7 11 ~delta:2.5;
  Alcotest.(check (float 0.0)) "entry bumped in place" 2.5 (PkD.get p 7 11);
  Alcotest.(check int) "fault tallied" (injected0 + 1)
    (counter_value "resilience.faults_injected")

(* ---- fault harness ---- *)

(* The packed tiled Cholesky op stream, in program order. *)
let cholesky_ops nt =
  let acc = ref [] in
  for k = 0 to nt - 1 do
    acc := Task.Potrf k :: !acc;
    for i = k + 1 to nt - 1 do
      acc := Task.Trsm (k, i) :: !acc
    done;
    for i = k + 1 to nt - 1 do
      acc := Task.Syrk (i, k) :: !acc;
      for j = k + 1 to i - 1 do
        acc := Task.Gemm (i, j, k) :: !acc
      done
    done
  done;
  List.rev !acc

let run_harness_storm ~seed ~nt ~nb =
  let h =
    Harness.create
      { Harness.default with seed; p_raise = 0.1; p_corrupt = 0.2; magnitude = 0.5 }
  in
  let p = PkD.create ~n:(nt * nb) ~nb in
  let executed = ref [] in
  let interp op = executed := Task.op_name op :: !executed in
  List.iter
    (fun op ->
      match Harness.wrap_packed h p interp op with
      | () -> ()
      | exception Harness.Injected _ -> ())
    (cholesky_ops nt);
  (Harness.raised h, Harness.corrupted h, List.rev !executed)

let test_harness_deterministic () =
  (* same (seed, op) -> same decision: two fresh harnesses over the same op
     stream fire identical faults, independent of any shared RNG state *)
  let a = run_harness_storm ~seed:7 ~nt:6 ~nb:4 in
  let b = run_harness_storm ~seed:7 ~nt:6 ~nb:4 in
  Alcotest.(check bool) "identical decisions across runs" true (a = b);
  let raised, corrupted, _ = a in
  Alcotest.(check bool) "storm actually fired" true (raised > 0 && corrupted > 0);
  let raised', _, _ = run_harness_storm ~seed:8 ~nt:6 ~nb:4 in
  Alcotest.(check bool) "a different seed differs somewhere" true
    (run_harness_storm ~seed:8 ~nt:6 ~nb:4 <> a || raised' <> raised)

let test_harness_transient_vs_permanent () =
  let p = PkD.create ~n:4 ~nb:4 in
  let interp _ = () in
  let h = Harness.create { Harness.default with seed = 3; p_raise = 1.0 } in
  (match Harness.wrap_packed h p interp (Task.Potrf 0) with
  | () -> Alcotest.fail "expected an injected raise"
  | exception Harness.Injected _ -> ());
  (* transient (default): the same op runs clean on replay *)
  Harness.wrap_packed h p interp (Task.Potrf 0);
  Alcotest.(check int) "raised exactly once" 1 (Harness.raised h);
  let hp =
    Harness.create { Harness.default with seed = 3; p_raise = 1.0; transient = false }
  in
  let expect_raise () =
    match Harness.wrap_packed hp p interp (Task.Potrf 0) with
    | () -> Alcotest.fail "permanent fault must re-raise"
    | exception Harness.Injected _ -> ()
  in
  expect_raise ();
  expect_raise ();
  Alcotest.(check int) "permanent raised twice" 2 (Harness.raised hp)

let test_harness_zero_policy_is_noop () =
  let p = PkD.create ~n:8 ~nb:4 in
  let h = Harness.create Harness.default in
  let ran = ref 0 in
  List.iter (fun op -> Harness.wrap_packed h p (fun _ -> incr ran) op) (cholesky_ops 2);
  Alcotest.(check int) "every op executed" (List.length (cholesky_ops 2)) !ran;
  Alcotest.(check int) "nothing raised" 0 (Harness.raised h);
  Alcotest.(check int) "nothing corrupted" 0 (Harness.corrupted h);
  for i = 0 to 7 do
    for j = 0 to 7 do
      Alcotest.(check (float 0.0)) "matrix untouched" 0.0 (PkD.get p i j)
    done
  done

let test_harness_validation () =
  Alcotest.check_raises "probabilities must sum <= 1"
    (Invalid_argument "Harness.create: probabilities must be >= 0 and sum to <= 1")
    (fun () ->
      ignore (Harness.create { Harness.default with p_raise = 0.7; p_corrupt = 0.5 }))

(* ---- checkpoint file hardening ---- *)

(* Header layout: 7-byte magic, 1 version byte, 8-byte LE payload length,
   4-byte LE CRC-32, then the Marshal payload at offset 20. *)
let ckpt_payload_offset = 20

let with_temp_ckpt f =
  let path = Filename.temp_file "xsc_ckpt_hard" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  b

let write_file path b =
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let check_load_error name expected path =
  match Checkpoint.load path with
  | Error e when e = expected -> ()
  | Error e ->
    Alcotest.failf "%s: expected %s, got %s" name
      (Checkpoint.describe_error expected)
      (Checkpoint.describe_error e)
  | Ok _ -> Alcotest.failf "%s: damaged checkpoint was accepted" name

let test_load_missing_file () =
  check_load_error "missing" Checkpoint.No_such_file "/nonexistent/xsc_nope.bin"

let test_load_torn_write () =
  let rng = Rng.create 51 in
  let m = Mat.random rng 12 12 in
  with_temp_ckpt (fun path ->
      let bytes = Checkpoint.save path m in
      (* a crash mid-write: the file ends before the declared payload *)
      let b = read_file path in
      write_file path (Bytes.sub b 0 (bytes - 7));
      check_load_error "torn payload" Checkpoint.Truncated path;
      (* torn even earlier: shorter than the header itself *)
      write_file path (Bytes.sub b 0 5);
      check_load_error "torn header" Checkpoint.Truncated path)

let test_load_bad_magic () =
  with_temp_ckpt (fun path ->
      write_file path (Bytes.of_string "NOTCKPT0aaaaaaaabbbbpayloadpayload");
      check_load_error "garbage file" Checkpoint.Bad_magic path)

let test_load_bad_version () =
  let rng = Rng.create 53 in
  let m = Mat.random rng 6 6 in
  with_temp_ckpt (fun path ->
      ignore (Checkpoint.save path m);
      let b = read_file path in
      Bytes.set b 7 (Char.chr 9);
      write_file path b;
      check_load_error "future version" (Checkpoint.Bad_version 9) path)

let test_load_bad_crc () =
  let rng = Rng.create 55 in
  let m = Mat.random rng 10 10 in
  with_temp_ckpt (fun path ->
      ignore (Checkpoint.save path m);
      let b = read_file path in
      (* flip one payload bit: bit rot on disk *)
      let pos = Bytes.length b - 3 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
      write_file path b;
      check_load_error "bit rot" Checkpoint.Bad_crc path;
      (* damage inside the Marshal header region of the payload too *)
      let b2 = read_file path in
      Bytes.set b2 ckpt_payload_offset
        (Char.chr (Char.code (Bytes.get b2 ckpt_payload_offset) lxor 0xFF));
      write_file path b2;
      check_load_error "payload head damaged" Checkpoint.Bad_crc path)

let test_save_value_generic_roundtrip () =
  with_temp_ckpt (fun path ->
      let v = (42, [| "alpha"; "beta" |], 3.25) in
      let bytes = Checkpoint.save_value path v in
      Alcotest.(check bool) "no tmp residue after atomic rename" false
        (Sys.file_exists (path ^ ".tmp"));
      Alcotest.(check bool) "header + payload" true (bytes > ckpt_payload_offset);
      match Checkpoint.load_value path with
      | Ok v' -> Alcotest.(check bool) "round-trips structurally" true (v = v')
      | Error e -> Alcotest.failf "load_value: %s" (Checkpoint.describe_error e))

let test_save_overwrites_atomically () =
  with_temp_ckpt (fun path ->
      ignore (Checkpoint.save_value path "first");
      ignore (Checkpoint.save_value path "second");
      match Checkpoint.load_value path with
      | Ok s -> Alcotest.(check string) "latest value wins" "second" s
      | Error e -> Alcotest.failf "load_value: %s" (Checkpoint.describe_error e))

(* ---- Flight recorder ---- *)

let span_rec ?(request = 0) ?(span = 1) ?(parent = -1) ?(start_ns = 1000) ?(phase = "attempt")
    () =
  { Span.request; span; parent; phase; name = "test"; lane = 0; attempt = 0; start_ns;
    finish_ns = start_ns + 10 }

let check_flight_error name expected path =
  match Flight.read path with
  | Error e when e = expected -> ()
  | Error e ->
    Alcotest.failf "%s: expected %s, got %s" name
      (Checkpoint.describe_error expected)
      (Checkpoint.describe_error e)
  | Ok _ -> Alcotest.failf "%s: damaged flight dump was accepted" name

let test_flight_roundtrip () =
  let records =
    List.init 10 (fun i -> span_rec ~request:i ~span:(i + 1) ~start_ns:(1000 + i) ())
  in
  with_temp_ckpt (fun path ->
      ignore (Flight.dump ~path ~reason:"test" records : int);
      match Flight.read path with
      | Error e -> Alcotest.failf "read: %s" (Checkpoint.describe_error e)
      | Ok d ->
        Alcotest.(check string) "reason survives" "test" d.Flight.reason;
        Alcotest.(check int) "all records dumped" 10 (List.length d.Flight.records);
        (* dump order is the caller's: oldest first *)
        List.iteri
          (fun i (r : Span.record) -> Alcotest.(check int) "time-sorted" (1000 + i) r.start_ns)
          d.Flight.records)

let test_flight_overwrites_oldest () =
  (* the post-mortem bias: the server dumps its span collector, a full
     ring of which keeps the most recent records *)
  let c = Span.collector ~capacity:8 () in
  for i = 0 to 99 do
    Span.record c (span_rec ~span:i ~start_ns:i ())
  done;
  with_temp_ckpt (fun path ->
      ignore (Flight.dump ~path ~reason:"ring" (Span.records c) : int);
      match Flight.read path with
      | Error e -> Alcotest.failf "read: %s" (Checkpoint.describe_error e)
      | Ok d ->
        Alcotest.(check int) "all offered counted" 100
          (List.length d.Flight.records + Span.dropped c);
        Alcotest.(check int) "bounded" 8 (List.length d.Flight.records);
        List.iter
          (fun (r : Span.record) ->
            Alcotest.(check bool) "newest survive" true (r.start_ns >= 92))
          d.Flight.records)

let test_flight_torn_write () =
  with_temp_ckpt (fun path ->
      let bytes = Flight.dump ~path ~reason:"torn" [ span_rec () ] in
      let b = read_file path in
      write_file path (Bytes.sub b 0 (bytes - 5));
      check_flight_error "torn payload" Checkpoint.Truncated path;
      write_file path (Bytes.sub b 0 4);
      check_flight_error "torn header" Checkpoint.Truncated path)

let test_flight_bad_crc () =
  with_temp_ckpt (fun path ->
      ignore (Flight.dump ~path ~reason:"rot" [ span_rec () ] : int);
      let b = read_file path in
      let pos = Bytes.length b - 2 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
      write_file path b;
      check_flight_error "bit rot" Checkpoint.Bad_crc path)

let test_flight_magic_separation () =
  (* a checkpoint file is not a flight dump, and vice versa: the shared
     header discipline must fail typed on the magic, never reach Marshal *)
  with_temp_ckpt (fun path ->
      ignore (Checkpoint.save_value path [ 1; 2; 3 ]);
      check_flight_error "checkpoint as flight" Checkpoint.Bad_magic path);
  with_temp_ckpt (fun path ->
      ignore (Flight.dump ~path ~reason:"magic" [ span_rec () ] : int);
      match Checkpoint.load_value path with
      | Error Checkpoint.Bad_magic -> ()
      | Error e ->
        Alcotest.failf "flight as checkpoint: expected bad magic, got %s"
          (Checkpoint.describe_error e)
      | Ok (_ : int list) -> Alcotest.fail "flight dump loaded as a checkpoint")

let test_flight_old_format_rejected () =
  (* a dump in the first flight format (its own magic, an entry-array
     payload) must fail typed on the magic, never be unmarshalled as the
     record-list payload *)
  with_temp_ckpt (fun path ->
      ignore (Checkpoint.save_value_with ~magic:"XSCFLTR" path ("old", 0.0, 3, [| 1; 2 |]));
      check_flight_error "first-format dump" Checkpoint.Bad_magic path)

let test_flight_dump_once () =
  Flight.reset_dump_guard ();
  with_temp_ckpt (fun path ->
      Alcotest.(check bool) "first dump writes" true
        (Flight.dump_once ~path ~reason:"first" (fun () -> [ span_rec () ]) <> None);
      Alcotest.(check bool) "second dump suppressed" true
        (Flight.dump_once ~path ~reason:"second" (fun () ->
             Alcotest.fail "a suppressed dump gathers no records")
        = None);
      (match Flight.read path with
      | Ok d -> Alcotest.(check string) "first reason kept" "first" d.Flight.reason
      | Error e -> Alcotest.failf "read: %s" (Checkpoint.describe_error e));
      Flight.reset_dump_guard ();
      Alcotest.(check bool) "guard reset re-arms" true
        (Flight.dump_once ~path ~reason:"third" (fun () -> []) <> None))

let () =
  Alcotest.run "xsc_resilience"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "young formula" `Quick test_young_formula;
          Alcotest.test_case "daly ~ young for small C" `Quick
            test_daly_close_to_young_when_c_small;
          Alcotest.test_case "expected time > work" `Quick test_expected_time_exceeds_work;
          Alcotest.test_case "save/load round-trip" `Quick test_checkpoint_save_load_roundtrip;
          Alcotest.test_case "model convex minimum" `Quick test_expected_time_convex_minimum;
          Alcotest.test_case "simulation matches model" `Quick test_simulation_matches_model;
          Alcotest.test_case "simulated minimum near Daly" `Quick
            test_simulation_minimum_near_daly;
          Alcotest.test_case "no-failure limit" `Quick test_simulate_no_failures_limit;
          Alcotest.test_case "efficiency bounds" `Quick test_efficiency_bounds;
          Alcotest.test_case "validation" `Quick test_checkpoint_validation;
        ] );
      ( "abft gemm",
        [
          Alcotest.test_case "clean verifies" `Quick test_gemm_protected_clean;
          qcheck prop_gemm_single_error_corrected;
          Alcotest.test_case "two errors" `Quick test_gemm_two_errors_distinct_rows_cols;
          Alcotest.test_case "correct is a no-op when clean" `Quick
            test_gemm_correct_noop_when_clean;
        ] );
      ( "abft cholesky",
        [
          Alcotest.test_case "clean verifies" `Quick test_verify_cholesky_clean;
          qcheck prop_cholesky_corruption_detected_and_recovered;
          Alcotest.test_case "bit flip detected" `Quick test_cholesky_bitflip_detected;
          Alcotest.test_case "recover from row 0 = refactor" `Quick
            test_recover_rows_full_refactor;
          Alcotest.test_case "recover last row" `Quick test_recover_cholesky_last_row;
          Alcotest.test_case "recover multiple rows" `Quick
            test_recover_cholesky_multiple_rows;
          Alcotest.test_case "overhead model" `Quick test_overhead_model;
        ] );
      ( "inject",
        [
          Alcotest.test_case "corrupt lower entry" `Quick test_corrupt_lower_entry;
          Alcotest.test_case "packed entry" `Quick test_packed_inject_entry;
        ] );
      ( "harness",
        [
          Alcotest.test_case "seeded storm is deterministic" `Quick
            test_harness_deterministic;
          Alcotest.test_case "transient vs permanent" `Quick
            test_harness_transient_vs_permanent;
          Alcotest.test_case "zero policy is a no-op" `Quick
            test_harness_zero_policy_is_noop;
          Alcotest.test_case "validation" `Quick test_harness_validation;
        ] );
      ( "checkpoint files",
        [
          Alcotest.test_case "missing file" `Quick test_load_missing_file;
          Alcotest.test_case "torn write rejected" `Quick test_load_torn_write;
          Alcotest.test_case "bad magic rejected" `Quick test_load_bad_magic;
          Alcotest.test_case "bad version rejected" `Quick test_load_bad_version;
          Alcotest.test_case "bad crc rejected" `Quick test_load_bad_crc;
          Alcotest.test_case "generic value round-trip" `Quick
            test_save_value_generic_roundtrip;
          Alcotest.test_case "atomic overwrite" `Quick test_save_overwrites_atomically;
        ] );
      ( "flight recorder",
        [
          Alcotest.test_case "round-trip" `Quick test_flight_roundtrip;
          Alcotest.test_case "overwrites oldest" `Quick test_flight_overwrites_oldest;
          Alcotest.test_case "torn write rejected" `Quick test_flight_torn_write;
          Alcotest.test_case "bad crc rejected" `Quick test_flight_bad_crc;
          Alcotest.test_case "magic separation" `Quick test_flight_magic_separation;
          Alcotest.test_case "first-format dump rejected" `Quick
            test_flight_old_format_rejected;
          Alcotest.test_case "dump-once guard" `Quick test_flight_dump_once;
        ] );
    ]
