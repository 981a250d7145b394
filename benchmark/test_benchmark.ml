(* Tier-1 check of the benchmark: BENCHMARK.json and the code declare the
   same metrics, every workload runs at smoke size with its correctness
   gates green and every declared metric emitted, and compare flags a
   slowdown while passing identical records. *)

open Xsc_benchmark
module Json = Xsc_util.Json

let bench = lazy (Json.parse (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all))

let member k j =
  match Json.member k j with Some v -> v | None -> Alcotest.failf "BENCHMARK.json: no %s" k

let str = function Json.Str s -> s | _ -> Alcotest.fail "expected a string"
let list = function Json.List l -> l | _ -> Alcotest.fail "expected a list"

let valid_name s =
  s <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let test_declared () =
  let b = Lazy.force bench in
  Alcotest.(check (list string)) "paths" [ "benchmark" ] (List.map str (list (member "paths" b)));
  Alcotest.(check (list string))
    "workloads" (List.map (fun w -> w.Workload.name) Workload.all)
    (List.map (fun w -> str (member "name" w)) (list (member "workloads" b)));
  let declared key catalog =
    let entries = list (member key b) in
    Alcotest.(check (list (triple string string string)))
      key
      (List.map (fun (x : Catalog.metric) -> (x.name, x.unit, Catalog.better_name x.better)) catalog)
      (List.map
         (fun e -> (str (member "name" e), str (member "unit" e), str (member "better" e)))
         entries);
    entries
  in
  let e2e = declared "end_to_end" Catalog.end_to_end in
  ignore (declared "per_layer" Catalog.per_layer);
  let bound e = match member "bound" e with Json.Num x -> x | _ -> Alcotest.fail "bound" in
  List.iter
    (fun e ->
      let b = bound e in
      if not (b > 0.0 && b <= 0.25) then Alcotest.failf "bound %g out of (0, 0.25]" b)
    e2e;
  let setup = List.find (fun e -> str (member "name" e) = "setup_s") e2e in
  Alcotest.(check bool) "setup_s has the largest bound" true
    (List.for_all (fun e -> bound e <= bound setup) e2e);
  List.iter
    (fun name ->
      if not (valid_name name) then Alcotest.failf "bad name %S" name)
    (List.map (fun w -> w.Workload.name) Workload.all
    @ List.map (fun m -> m.Catalog.name) (Catalog.end_to_end @ Catalog.per_layer))

let smoke_seconds = 0.25

let check_metrics label catalog (r : Runner.result) =
  if not r.Runner.correct then
    Alcotest.failf "%s %s: %s" r.Runner.workload label (String.concat "; " r.Runner.problems);
  Alcotest.(check (list string))
    (r.Runner.workload ^ " " ^ label ^ " metrics")
    (List.map (fun m -> m.Catalog.name) catalog)
    (List.map fst r.Runner.metrics);
  List.iter
    (fun (name, v) ->
      if not (Float.is_finite v) then Alcotest.failf "%s %s = %g" r.Runner.workload name v)
    r.Runner.metrics

let test_smoke (w : Workload.t) () =
  let seed = 3 and seconds = smoke_seconds in
  let e2e, layers =
    Runner.with_watchdog w ~seed ~seconds (fun ~instances ~watchdog ~current ->
        ( Runner.end_to_end w ~seed ~seconds ~instances ~watchdog ~current,
          Runner.per_layer w ~seed ~seconds ~instances ~watchdog ~current ))
  in
  check_metrics "end-to-end" Catalog.end_to_end e2e;
  List.iter
    (fun (name, v) -> if v <= 0.0 then Alcotest.failf "%s %s = %g, not positive" w.Workload.name name v)
    e2e.Runner.metrics;
  check_metrics "per-layer" Catalog.per_layer layers;
  let get name = List.assoc name layers.Runner.metrics in
  let unattributed = get "ledger.unattributed_frac" in
  if not (unattributed >= 0.0 && unattributed < 1.0) then
    Alcotest.failf "%s: ledger.unattributed_frac = %g" w.Workload.name unattributed;
  if w.Workload.name = "large-closed" then begin
    if get "route.finish_us.p50" <= 0.0 then Alcotest.fail "large-closed: no finish timing";
    List.iter
      (fun f ->
        if get (Printf.sprintf "kernel.%s.calls" f) <= 0.0 then
          Alcotest.failf "large-closed: no %s calls" f)
      [ "potrf"; "trsm"; "syrk"; "gemm" ]
  end

(* Ten runs per workload, at most 1.8% apart; every gated metric is made
   worse by [worse bound] (a share of its median). *)
let synthetic gated ~worse =
  List.concat_map
    (fun (w : Workload.t) ->
      List.init 10 (fun i ->
          let jitter = 1.0 +. (0.002 *. float_of_int i) in
          {
            Record.workload = w.Workload.name;
            seed = i;
            trace = false;
            exit_code = 0;
            correct = true;
            attempted = 100;
            failed = 0;
            values =
              ("offered", 100.0) :: ("miss_frac", 0.0)
              :: List.map
                   (fun (g : Record.gated) ->
                     let x = worse g.Record.bound in
                     let f = match g.Record.better with Catalog.Lower -> 1.0 +. x | Catalog.Higher -> 1.0 -. x in
                     (g.Record.metric, 10.0 *. jitter *. f))
                   gated;
          }))
    Workload.all

let expect gated ~old_runs ~new_runs verdict =
  let rows = Record.rows ~gated ~old_runs ~new_runs in
  Alcotest.(check int) "one row per workload and gated metric"
    (List.length Workload.all * List.length gated) (List.length rows);
  List.iter
    (fun r ->
      if r.Record.verdict <> verdict then
        Alcotest.failf "%s %s: %s, expected %s" r.Record.r_workload r.Record.r_metric
          (Record.verdict_name r.Record.verdict) (Record.verdict_name verdict))
    rows

let test_compare () =
  let gated = Record.load_gated "../BENCHMARK.json" in
  let base = synthetic gated ~worse:(fun _ -> 0.0) in
  expect gated ~old_runs:base ~new_runs:base Record.Unchanged;
  Alcotest.(check int) "identical records pass" 0 (Record.compare ~gated ~old_runs:base ~new_runs:base);
  let within = synthetic gated ~worse:(fun b -> b /. 2.0) in
  expect gated ~old_runs:base ~new_runs:within Record.Unchanged;
  (* a 20% slowdown where the bound is below 20%, else just past the bound *)
  let slow = synthetic gated ~worse:(fun b -> Float.max 0.2 (b +. 0.05)) in
  expect gated ~old_runs:base ~new_runs:slow Record.Regressed;
  Alcotest.(check int) "slowdown fails" 1 (Record.compare ~gated ~old_runs:base ~new_runs:slow);
  let faster = synthetic gated ~worse:(fun b -> -.(b +. 0.05)) in
  expect gated ~old_runs:base ~new_runs:faster Record.Improved

(* Spreads wider than the bound: overlapping sides are unresolved, a clean
   separation is judged; setup_s tolerates its absolute floor. *)
let test_judge () =
  let g = { Record.metric = "p50_ms"; better = Catalog.Lower; bound = 0.1; floor = 0.0 } in
  let wide = [ 8.0; 9.0; 10.0; 11.0; 12.0 ] in
  let verdict ?(g = g) old_values new_values =
    Record.verdict_name (snd (Record.judge g ~old_values ~new_values))
  in
  Alcotest.(check string) "overlapping" "unresolved" (verdict wide (List.map (( *. ) 1.05) wide));
  Alcotest.(check string) "every run worse" "regressed" (verdict wide (List.map (( +. ) 5.0) wide));
  Alcotest.(check string) "every run better" "improved" (verdict wide (List.map (fun x -> x -. 5.0) wide));
  let setup = { g with metric = "setup_s"; floor = Catalog.floor "setup_s" } in
  let ms = List.map (fun x -> x /. 1000.0) in
  Alcotest.(check string) "setup 10 -> 20 ms is within the floor" "unchanged"
    (verdict ~g:setup (ms [ 10.0; 10.0; 10.0 ]) (ms [ 20.0; 20.0; 20.0 ]));
  Alcotest.(check string) "setup 10 -> 40 ms regressed" "regressed"
    (verdict ~g:setup (ms [ 10.0; 10.0; 10.0 ]) (ms [ 40.0; 40.0; 40.0 ]))

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q3 = Record.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 1e-12)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-12)) "q3" 8.25 q3

let () =
  Alcotest.run "benchmark"
    [
      ("declared", [ Alcotest.test_case "BENCHMARK.json matches the catalog" `Quick test_declared ]);
      ( "smoke",
        List.map
          (fun (w : Workload.t) -> Alcotest.test_case w.Workload.name `Quick (test_smoke w))
          Workload.all );
      ( "compare",
        [
          Alcotest.test_case "flags a slowdown past the bound, passes one within" `Quick
            test_compare;
          Alcotest.test_case "wide spreads, clean separations and the set-up floor" `Quick
            test_judge;
          Alcotest.test_case "quartiles match Python's" `Quick test_quartiles;
        ] );
    ]
