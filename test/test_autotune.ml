(* Tests for Xsc_autotune: search strategies, the measurement harness,
   the persisted kernel-tuning cache and its typed failure modes. *)

module Search = Xsc_autotune.Search
module Tuner = Xsc_autotune.Tuner
module KT = Xsc_autotune.Kernel_tune
module Kconfig = Xsc_linalg.Kconfig
module P = Xsc_linalg.Pblas

let qcheck tc = QCheck_alcotest.to_alcotest tc

(* ---- Search ---- *)

let test_grid_finds_minimum () =
  let f x = float_of_int ((x - 7) * (x - 7)) in
  let evals, best = Search.grid ~candidates:(List.init 20 (fun i -> i)) ~f in
  Alcotest.(check int) "evaluated all" 20 (List.length evals);
  Alcotest.(check int) "best candidate" 7 best.Search.candidate;
  Alcotest.(check (float 0.0)) "best cost" 0.0 best.Search.cost

let test_grid_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Search.grid: no candidates") (fun () ->
      ignore (Search.grid ~candidates:[] ~f:(fun _ -> 0.0)))

let test_grid_preserves_order () =
  let evals, _ = Search.grid ~candidates:[ 3; 1; 2 ] ~f:float_of_int in
  Alcotest.(check (list int)) "input order" [ 3; 1; 2 ]
    (List.map (fun e -> e.Search.candidate) evals)

let test_hill_climb_convex () =
  let f x = ((x -. 5.0) ** 2.0) +. 1.0 in
  let neighbours x = [ x -. 1.0; x +. 1.0 ] in
  let best = Search.hill_climb ~neighbours ~start:0.0 f in
  Alcotest.(check (float 0.0)) "finds the minimum" 5.0 best.Search.candidate;
  Alcotest.(check (float 0.0)) "minimum value" 1.0 best.Search.cost

let test_hill_climb_respects_max_steps () =
  let f x = -.x in
  (* unbounded descent *)
  let best = Search.hill_climb ~max_steps:10 ~neighbours:(fun x -> [ x +. 1.0 ]) ~start:0.0 f in
  Alcotest.(check (float 0.0)) "stopped at budget" 10.0 best.Search.candidate

let test_hill_climb_local_optimum () =
  (* two baseins; hill climbing from 0 gets stuck in the local one *)
  let f x = if x < 5.0 then abs_float (x -. 2.0) else abs_float (x -. 8.0) -. 10.0 in
  let best = Search.hill_climb ~neighbours:(fun x -> [ x -. 1.0; x +. 1.0 ]) ~start:0.0 f in
  Alcotest.(check (float 0.0)) "stuck at local min" 2.0 best.Search.candidate

let test_hill_climb_no_neighbours () =
  let best = Search.hill_climb ~neighbours:(fun _ -> []) ~start:42 (fun _ -> 3.0) in
  Alcotest.(check int) "returns start" 42 best.Search.candidate

(* A 9-point ladder with its optimum at the far end: every step revisits
   the point it just left, so an unmemoised climb makes 17 calls. *)
let test_hill_climb_evaluates_each_candidate_once () =
  let calls = ref 0 in
  let f x =
    incr calls;
    float_of_int (-x)
  in
  let neighbours x = List.filter (fun y -> y >= 0 && y <= 8) [ x - 1; x + 1 ] in
  let best = Search.hill_climb ~neighbours ~start:0 f in
  Alcotest.(check int) "reaches the far end" 8 best.Search.candidate;
  Alcotest.(check bool) (Printf.sprintf "%d calls for 9 candidates" !calls) true (!calls <= 9)

let test_successive_halving_picks_best () =
  (* cost improves with budget but ordering is stable: the true best wins *)
  let f c ~budget = (float_of_int c *. 10.0) +. (100.0 /. float_of_int budget) in
  let best = Search.successive_halving ~candidates:[ 5; 3; 1; 4; 2 ] ~budget0:1 f in
  Alcotest.(check int) "best survives" 1 best.Search.candidate

let test_successive_halving_single () =
  let best = Search.successive_halving ~candidates:[ 9 ] ~budget0:4 (fun _ ~budget -> float_of_int budget) in
  Alcotest.(check int) "sole candidate" 9 best.Search.candidate

let test_successive_halving_budget_grows () =
  let budgets = ref [] in
  let f _ ~budget =
    if not (List.mem budget !budgets) then budgets := budget :: !budgets;
    0.0
  in
  ignore (Search.successive_halving ~candidates:[ 1; 2; 3; 4 ] ~budget0:2 f);
  Alcotest.(check bool) "budget doubled at least once" true (List.mem 4 !budgets)

let test_successive_halving_validation () =
  Alcotest.check_raises "eta" (Invalid_argument "Search.successive_halving: eta must be >= 2")
    (fun () ->
      ignore (Search.successive_halving ~eta:1 ~candidates:[ 1 ] ~budget0:1 (fun _ ~budget:_ -> 0.0)))

let prop_grid_best_is_minimum =
  QCheck.Test.make ~name:"grid best has minimal cost" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 30) (float_range (-100.0) 100.0))
    (fun costs ->
      let candidates = List.mapi (fun i _ -> i) costs in
      let f i = List.nth costs i in
      let evals, best = Search.grid ~candidates ~f in
      List.for_all (fun e -> best.Search.cost <= e.Search.cost) evals)

(* ---- Tuner ---- *)

let test_time_thunk_measures () =
  let t = Tuner.time_thunk ~warmup:0 ~repeats:3 (fun () -> ignore (Sys.opaque_identity (Array.make 1000 0.0))) in
  Alcotest.(check bool) "non-negative" true (t >= 0.0)

let test_time_thunk_counts_runs () =
  let count = ref 0 in
  ignore (Tuner.time_thunk ~warmup:2 ~repeats:3 (fun () -> incr count));
  Alcotest.(check int) "warmup + repeats" 5 !count

let test_sweep_picks_fastest () =
  (* simulate work proportional to the parameter *)
  let bench p () =
    let acc = ref 0.0 in
    for i = 1 to p * 20000 do
      acc := !acc +. float_of_int i
    done;
    ignore (Sys.opaque_identity !acc)
  in
  let measurements, best =
    Tuner.sweep ~warmup:0 ~repeats:3 ~candidates:[ 16; 1; 8 ] ~flops:float_of_int ~bench ()
  in
  Alcotest.(check int) "three measurements" 3 (List.length measurements);
  Alcotest.(check int) "fastest param" 1 best.Tuner.param

let test_sweep_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Tuner.sweep: no candidates") (fun () ->
      ignore (Tuner.sweep ~candidates:[] ~flops:float_of_int ~bench:(fun _ () -> ()) ()))

(* ---- Kconfig: the persisted host-keyed tuning cache ---- *)

let sample_cache () =
  {
    Kconfig.host_key = Kconfig.host_key ();
    nb = 96;
    search_seconds = 1.25;
    entries =
      [
        {
          Kconfig.prec = P.F64;
          kernel = P.Gemm_nn;
          cfg = { P.shape = 3; pack = true; prefetch = false };
          default_gflops = 10.0;
          tuned_gflops = 12.5;
        };
        {
          Kconfig.prec = P.F32;
          kernel = P.Trsm_rlt;
          cfg = { P.default_cfg with pack = false };
          default_gflops = 5.0;
          tuned_gflops = 5.0;
        };
      ];
  }

let with_tmp_cache f =
  let path = Filename.temp_file "xsc-ktune" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      P.reset_cfgs ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let check_load_error name expected got =
  let show = function
    | Ok _ -> "Ok _"
    | Error e -> "Error: " ^ Kconfig.describe_error e
  in
  Alcotest.(check string) name (show (Error expected)) (show got)

let test_cache_roundtrip () =
  with_tmp_cache (fun path ->
      let c = sample_cache () in
      Kconfig.save ~path c;
      match Kconfig.load ~path () with
      | Error e -> Alcotest.fail ("load failed: " ^ Kconfig.describe_error e)
      | Ok c' ->
          Alcotest.(check bool) "round-trips exactly" true (c = c'))

let test_cache_host_mismatch () =
  with_tmp_cache (fun path ->
      let foreign = "other-host|Imaginary CPU @ 9.9GHz|64" in
      Kconfig.save ~path { (sample_cache ()) with Kconfig.host_key = foreign };
      check_load_error "host mismatch is typed"
        (Kconfig.Host_mismatch
           { expected = Kconfig.host_key (); found = foreign })
        (Kconfig.load ~path ());
      (* a foreign cache must not install anything *)
      P.reset_cfgs ();
      Alcotest.(check bool) "autoload refuses" false (Kconfig.autoload ~path ());
      Alcotest.(check bool) "configs stay default" true
        (P.cfg P.F64 P.Gemm_nn = P.default_cfg))

let test_cache_truncated () =
  with_tmp_cache (fun path ->
      Kconfig.save ~path (sample_cache ());
      let whole = read_file path in
      (* torn write: payload cut short *)
      write_file path (String.sub whole 0 (String.length whole - 10));
      check_load_error "torn payload" Kconfig.Truncated (Kconfig.load ~path ());
      (* shorter than the fixed header *)
      write_file path (String.sub whole 0 5);
      check_load_error "torn header" Kconfig.Truncated (Kconfig.load ~path ()))

let test_cache_bitflip () =
  with_tmp_cache (fun path ->
      Kconfig.save ~path (sample_cache ());
      let b = Bytes.of_string (read_file path) in
      let pos = Bytes.length b - 3 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
      write_file path (Bytes.to_string b);
      check_load_error "bit flip" Kconfig.Bad_crc (Kconfig.load ~path ()))

let test_cache_bad_magic_and_version () =
  with_tmp_cache (fun path ->
      Kconfig.save ~path (sample_cache ());
      let whole = read_file path in
      write_file path ("NOTCACHE" ^ String.sub whole 8 (String.length whole - 8));
      check_load_error "bad magic" Kconfig.Bad_magic (Kconfig.load ~path ());
      let b = Bytes.of_string whole in
      Bytes.set b 8 (Char.chr 99);
      write_file path (Bytes.to_string b);
      check_load_error "future version" (Kconfig.Bad_version 99)
        (Kconfig.load ~path ()))

(* CRC-valid but semantically absurd payload: corrupt a field AND patch the
   checksum so only the decoder's own validation can catch it. *)
let test_cache_malformed_payload () =
  with_tmp_cache (fun path ->
      Kconfig.save ~path (sample_cache ());
      let b = Bytes.of_string (read_file path) in
      let header_len = 8 + 1 + 8 + 4 in
      let key_len = String.length (Kconfig.host_key ()) in
      (* entry 0's shape byte: keylen/nb/seconds/count then prec+kernel *)
      let shape_pos = header_len + 4 + key_len + 4 + 8 + 4 + 2 in
      Bytes.set b shape_pos (Char.chr 200);
      let payload = Bytes.sub b header_len (Bytes.length b - header_len) in
      let crc = Xsc_util.Crc32.bytes payload in
      for i = 0 to 3 do
        Bytes.set b (17 + i) (Char.chr ((crc lsr (8 * i)) land 0xFF))
      done;
      write_file path (Bytes.to_string b);
      check_load_error "valid CRC, absurd shape id" Kconfig.Bad_crc
        (Kconfig.load ~path ()))

let test_cache_no_such_file_and_fallback () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "xsc-ktune-absent.bin" in
  (try Sys.remove path with Sys_error _ -> ());
  check_load_error "absent file" Kconfig.No_such_file (Kconfig.load ~path ());
  P.reset_cfgs ();
  Alcotest.(check bool) "autoload falls back" false (Kconfig.autoload ~path ());
  List.iter
    (fun prec ->
      List.iter
        (fun k ->
          Alcotest.(check bool)
            (P.prec_name prec ^ " " ^ P.kernel_name k ^ " stays default")
            true
            (P.cfg prec k = P.default_cfg))
        P.all_kernels)
    P.all_precs

let test_cache_apply_installs () =
  with_tmp_cache (fun path ->
      let c = sample_cache () in
      Kconfig.save ~path c;
      P.reset_cfgs ();
      Alcotest.(check bool) "autoload succeeds" true (Kconfig.autoload ~path ());
      Alcotest.(check bool) "f64 gemm_nn installed" true
        (P.cfg P.F64 P.Gemm_nn = { P.shape = 3; pack = true; prefetch = false });
      Alcotest.(check bool) "f32 trsm installed" true
        (P.cfg P.F32 P.Trsm_rlt = { P.default_cfg with pack = false });
      Alcotest.(check bool) "untouched kernel stays default" true
        (P.cfg P.F64 P.Syrk_ln = P.default_cfg);
      match Kconfig.current () with
      | Some t -> Alcotest.(check int) "current reflects the load" 96 t.Kconfig.nb
      | None -> Alcotest.fail "current () empty after autoload")

(* ---- Kernel_tune: tune once per host, every later process loads ---- *)

let test_ensure_tunes_once () =
  with_tmp_cache (fun path ->
      Sys.remove path;
      (match KT.ensure ~quick:true ~path () with
      | `Tuned (c, evaluations) ->
          Alcotest.(check int) "one entry per kernel x precision" 8
            (List.length c.Kconfig.entries);
          Alcotest.(check bool) "search actually ran" true (evaluations > 0);
          List.iter
            (fun e ->
              Alcotest.(check bool)
                (P.prec_name e.Kconfig.prec ^ " " ^ P.kernel_name e.Kconfig.kernel
               ^ " tuned >= default")
                true
                (e.Kconfig.tuned_gflops >= e.Kconfig.default_gflops))
            c.Kconfig.entries
      | `Loaded _ -> Alcotest.fail "first ensure must tune");
      match KT.ensure ~quick:true ~path () with
      | `Loaded t ->
          Alcotest.(check string) "loaded cache is this host's"
            (Kconfig.host_key ()) t.Kconfig.host_key
      | `Tuned _ -> Alcotest.fail "second ensure must load, not re-search")

let test_measure_pair_restores_cfg () =
  Fun.protect ~finally:P.reset_cfgs (fun () ->
      let other = { P.default_cfg with prefetch = true } in
      P.set_cfg P.F64 P.Gemm_nn other;
      let ra, rb =
        KT.measure_pair ~rounds:2 ~nb:32 P.F64 P.Gemm_nn P.default_cfg
          { P.default_cfg with pack = true }
      in
      Alcotest.(check bool) "rates positive" true (ra > 0.0 && rb > 0.0);
      Alcotest.(check bool) "installed config restored" true
        (P.cfg P.F64 P.Gemm_nn = other))

let () =
  Alcotest.run "xsc_autotune"
    [
      ( "search",
        [
          Alcotest.test_case "grid minimum" `Quick test_grid_finds_minimum;
          Alcotest.test_case "grid empty" `Quick test_grid_empty;
          Alcotest.test_case "grid order" `Quick test_grid_preserves_order;
          Alcotest.test_case "hill climb convex" `Quick test_hill_climb_convex;
          Alcotest.test_case "hill climb budget" `Quick test_hill_climb_respects_max_steps;
          Alcotest.test_case "hill climb local optimum" `Quick test_hill_climb_local_optimum;
          Alcotest.test_case "hill climb isolated" `Quick test_hill_climb_no_neighbours;
          Alcotest.test_case "hill climb evaluates each candidate once" `Quick
            test_hill_climb_evaluates_each_candidate_once;
          Alcotest.test_case "halving picks best" `Quick test_successive_halving_picks_best;
          Alcotest.test_case "halving single" `Quick test_successive_halving_single;
          Alcotest.test_case "halving budget grows" `Quick test_successive_halving_budget_grows;
          Alcotest.test_case "halving validation" `Quick test_successive_halving_validation;
          qcheck prop_grid_best_is_minimum;
        ] );
      ( "tuner",
        [
          Alcotest.test_case "time_thunk" `Quick test_time_thunk_measures;
          Alcotest.test_case "run counting" `Quick test_time_thunk_counts_runs;
          Alcotest.test_case "sweep picks fastest" `Quick test_sweep_picks_fastest;
          Alcotest.test_case "sweep empty" `Quick test_sweep_empty;
        ] );
      ( "kconfig",
        [
          Alcotest.test_case "round trip" `Quick test_cache_roundtrip;
          Alcotest.test_case "host mismatch" `Quick test_cache_host_mismatch;
          Alcotest.test_case "truncated" `Quick test_cache_truncated;
          Alcotest.test_case "bit flip" `Quick test_cache_bitflip;
          Alcotest.test_case "bad magic / version" `Quick
            test_cache_bad_magic_and_version;
          Alcotest.test_case "malformed payload" `Quick test_cache_malformed_payload;
          Alcotest.test_case "absent file fallback" `Quick
            test_cache_no_such_file_and_fallback;
          Alcotest.test_case "apply installs" `Quick test_cache_apply_installs;
        ] );
      ( "kernel_tune",
        [
          Alcotest.test_case "ensure tunes once" `Slow test_ensure_tunes_once;
          Alcotest.test_case "measure_pair restores cfg" `Quick
            test_measure_pair_restores_cfg;
        ] );
    ]
