(* Tests for Xsc_util: RNG, statistics, tables, unit formatting, JSON. *)

module Rng = Xsc_util.Rng
module Stats = Xsc_util.Stats
module Table = Xsc_util.Table
module Units = Xsc_util.Units
module Json = Xsc_util.Json

let check_float = Alcotest.(check (float 1e-9))

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "different seeds differ" true (!same < 4)

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  (* child's stream must differ from the parent's continuation *)
  let differs = ref false in
  for _ = 1 to 16 do
    if Rng.int64 child <> Rng.int64 parent then differs := true
  done;
  Alcotest.(check bool) "split independent" true !differs

let test_rng_uniform_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let u = Rng.uniform rng in
    Alcotest.(check bool) "in [0,1)" true (u >= 0.0 && u < 1.0)
  done

let test_rng_uniform_mean () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.uniform rng
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean ~ 0.5" true (abs_float (mean -. 0.5) < 0.02)

let test_rng_int_bounds () =
  let rng = Rng.create 5 in
  let seen = Array.make 10 false in
  for _ = 1 to 2000 do
    let k = Rng.int rng 10 in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 10);
    seen.(k) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all (fun b -> b) seen)

let test_rng_int_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_gaussian_moments () =
  let rng = Rng.create 13 in
  let n = 50_000 in
  let sum = ref 0.0 and sum2 = ref 0.0 in
  for _ = 1 to n do
    let g = Rng.gaussian rng in
    sum := !sum +. g;
    sum2 := !sum2 +. (g *. g)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sum2 /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~ 0" true (abs_float mean < 0.03);
  Alcotest.(check bool) "var ~ 1" true (abs_float (var -. 1.0) < 0.05)

let test_rng_exponential_mean () =
  let rng = Rng.create 17 in
  let lambda = 0.25 in
  let n = 50_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential rng lambda
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean ~ 1/lambda" true (abs_float (mean -. 4.0) < 0.15)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 23 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

(* ---- Stats ---- *)

let test_mean_variance () =
  let a = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Stats.mean a)

let test_median () =
  check_float "odd" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |]);
  check_float "even" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: empty") (fun () ->
      ignore (Stats.median [||]))

let test_percentile () =
  let a = Array.init 101 (fun i -> float_of_int i) in
  check_float "p0" 0.0 (Stats.percentile a 0.0);
  check_float "p50" 50.0 (Stats.percentile a 50.0);
  check_float "p100" 100.0 (Stats.percentile a 100.0);
  check_float "p25" 25.0 (Stats.percentile a 25.0)

let test_linear_fit_exact () =
  let pts = Array.init 10 (fun i -> (float_of_int i, (2.5 *. float_of_int i) +. 1.0)) in
  let f = Stats.linear_fit pts in
  check_float "slope" 2.5 f.Stats.slope;
  check_float "intercept" 1.0 f.Stats.intercept;
  check_float "r2" 1.0 f.Stats.r2

let test_linear_fit_noisy () =
  let rng = Rng.create 31 in
  let pts =
    Array.init 200 (fun i ->
        let x = float_of_int i /. 10.0 in
        (x, (3.0 *. x) -. 2.0 +. (0.01 *. Rng.gaussian rng)))
  in
  let f = Stats.linear_fit pts in
  Alcotest.(check bool) "slope ~ 3" true (abs_float (f.Stats.slope -. 3.0) < 0.01);
  Alcotest.(check bool) "r2 high" true (f.Stats.r2 > 0.999)

(* ---- Table ---- *)

let test_table_render () =
  let t = Table.create ~headers:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1.5" ];
  Table.add_row t [ "beta"; "22.0" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  Alcotest.(check bool) "contains rows" true
    (List.length (String.split_on_char '\n' s) = 4)

let test_table_arity_check () =
  let t = Table.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch with headers")
    (fun () -> Table.add_row t [ "only-one" ])

(* ---- Units ---- *)

let test_units_flops () =
  Alcotest.(check string) "tflops" "1.23 Tflop/s" (Units.flops 1.23e12);
  Alcotest.(check string) "flops" "12.00 flop/s" (Units.flops 12.0)

let test_units_bytes () =
  Alcotest.(check string) "gib" "1.00 GiB" (Units.bytes (1024.0 *. 1024.0 *. 1024.0));
  Alcotest.(check string) "zero" "0 B" (Units.bytes 0.0)

let test_units_seconds () =
  Alcotest.(check string) "ns" "5.0 ns" (Units.seconds 5e-9);
  Alcotest.(check string) "ms" "2.50 ms" (Units.seconds 2.5e-3);
  Alcotest.(check string) "min" "2.0 min" (Units.seconds 120.0);
  Alcotest.(check string) "days" "2.0 days" (Units.seconds 172800.0)

let test_units_misc () =
  Alcotest.(check string) "ratio" "1.87x" (Units.ratio 1.87);
  Alcotest.(check string) "percent" "12.3%" (Units.percent 0.123);
  Alcotest.(check string) "watts" "2.00 MW" (Units.watts 2e6)

(* ---- Json ---- *)

let test_json_parse_scalars () =
  Alcotest.(check bool) "null" true (Json.parse "null" = Json.Null);
  Alcotest.(check bool) "true" true (Json.parse "true" = Json.Bool true);
  Alcotest.(check bool) "false" true (Json.parse " false " = Json.Bool false);
  Alcotest.(check bool) "number" true (Json.parse "-1.5e2" = Json.Num (-150.0));
  Alcotest.(check bool) "string escapes" true
    (Json.parse {|"a\"b\\c\nd"|} = Json.Str "a\"b\\c\nd")

let test_json_parse_structures () =
  match Json.parse {|{"a": [1, 2], "b": {"c": false}, "empty": []}|} with
  | Json.Obj
      [
        ("a", Json.List [ Json.Num 1.0; Json.Num 2.0 ]);
        ("b", Json.Obj [ ("c", Json.Bool false) ]);
        ("empty", Json.List []);
      ] -> ()
  | _ -> Alcotest.fail "unexpected parse result"

let test_json_member () =
  let j = Json.parse {|{"x": 3}|} in
  Alcotest.(check bool) "member hit" true (Json.member "x" j = Some (Json.Num 3.0));
  Alcotest.(check bool) "member miss" true (Json.member "y" j = None);
  Alcotest.(check bool) "member of non-object" true (Json.member "x" Json.Null = None)

let test_json_rejects_malformed () =
  List.iter
    (fun s ->
      match Json.parse s with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "accepted malformed %S" s)
    [ ""; "{"; "[1,]"; "1 2"; {|{"a":}|}; "nul"; {|"unterminated|} ]

let test_json_escape_roundtrip () =
  let s = "quote\" backslash\\ newline\n tab\t bell\007" in
  match Json.parse (Printf.sprintf "\"%s\"" (Json.escape s)) with
  | Json.Str s' -> Alcotest.(check string) "escape then parse is identity" s s'
  | _ -> Alcotest.fail "escaped string did not parse as a string"

(* Generated documents: finite numbers (integral, tiny, huge, negative
   zero) and strings full of characters the printer must escape. *)
let json_gen =
  let open QCheck.Gen in
  let str =
    string_size
      ~gen:(oneof [ char; oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\b'; '\012'; '\001'; '/' ] ])
      (0 -- 12)
  in
  let num =
    oneof
      [
        map float_of_int int;
        map (fun x -> if Float.is_finite x then x else 0.5) float;
        oneofl [ -0.0; 1e-300; 1e300; 0.1; 1e15; 123456789.125 ];
      ]
  in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun x -> Json.Num x) num;
               map (fun s -> Json.Str s) str;
             ]
         in
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) (list_size (0 -- 4) (self (n / 3))));
               (1, map (fun kv -> Json.Obj kv) (list_size (0 -- 4) (pair str (self (n / 3)))));
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"parse (to_string v) = v" ~count:500
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v -> Json.parse (Json.to_string v) = v)

let () =
  Alcotest.run "xsc_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance" `Quick test_mean_variance;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "linear fit exact" `Quick test_linear_fit_exact;
          Alcotest.test_case "linear fit noisy" `Quick test_linear_fit_noisy;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity check" `Quick test_table_arity_check;
        ] );
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_parse_scalars;
          Alcotest.test_case "structures" `Quick test_json_parse_structures;
          Alcotest.test_case "member" `Quick test_json_member;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects_malformed;
          Alcotest.test_case "escape round-trip" `Quick test_json_escape_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
      ( "units",
        [
          Alcotest.test_case "flops" `Quick test_units_flops;
          Alcotest.test_case "bytes" `Quick test_units_bytes;
          Alcotest.test_case "seconds" `Quick test_units_seconds;
          Alcotest.test_case "misc" `Quick test_units_misc;
        ] );
    ]
