(* The serving benchmark's command line. See README.md in this directory. *)

open Xsc_benchmark

let usage =
  {|usage:
  main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
      one run of one workload; prints "workload metric value unit" lines and
      a JSON summary as the last line
  main.exe run [--seed N] [--workload W]... [--traced] [--repeat N] [--seconds S] --out FILE
      each workload in its own process (traced runs too with --traced),
      repeated N times with alternating workload order; writes one record
  main.exe compare [--bench BENCHMARK.json] OLD... -- NEW...
      judge two sets of records with the bounds in BENCHMARK.json
  main.exe soak [--runs N] [--seed N]
      small-closed with spans on past the span collector's capacity, N times
|}

let die msg =
  prerr_endline ("error: " ^ msg);
  prerr_string usage;
  exit 2

(* [--key value] pairs of the keys a command takes; anything else is an
   error, so a mistyped option cannot run with defaults. *)
let options keys args =
  let rec go acc = function
    | [] -> List.rev acc
    | "--traced" :: rest when List.mem "--traced" keys -> go (("--traced", "") :: acc) rest
    | k :: v :: rest when List.mem k keys -> go ((k, v) :: acc) rest
    | x :: _ -> die ("unexpected argument " ^ x)
  in
  go [] args

let opt conv opts k ~default =
  match List.assoc_opt k opts with
  | None -> default
  | Some v -> ( match conv v with Some x -> x | None -> die (Printf.sprintf "bad value %S for %s" v k))

let int_opt = opt int_of_string_opt
let seconds_opt opts =
  let s = opt float_of_string_opt opts "--seconds" ~default:20.0 in
  if s > 0.0 then s else die "--seconds must be positive"

let workload_of name =
  match Workload.find name with Some w -> w | None -> die ("unknown workload " ^ name)

let required opts k = match List.assoc_opt k opts with Some v -> v | None -> die (k ^ " is required")

(* One run of one workload in this process. *)
let single opts =
  let w = workload_of (required opts "--workload") in
  let trace =
    match List.assoc_opt "--trace" opts with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some v -> die (Printf.sprintf "bad value %S for --trace" v)
  in
  let r =
    Runner.run w ~seed:(int_opt opts "--seed" ~default:1) ~seconds:(seconds_opt opts) ~trace
  in
  Runner.print_result r;
  exit (if r.Runner.correct then 0 else 1)

(* Run this executable as a child and wait for it: its stdout lines and
   exit code. *)
let child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  let code = match Unix.close_process_in ic with Unix.WEXITED c -> c | _ -> 255 in
  (lines, code)

let run_cmd opts =
  let out = required opts "--out" in
  (* fail before the run, not after it *)
  (try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 out)
   with Sys_error e -> die ("cannot write --out: " ^ e));
  let seed = int_opt opts "--seed" ~default:1 in
  let repeat = int_opt opts "--repeat" ~default:1 in
  let seconds = seconds_opt opts in
  let modes = if List.mem_assoc "--traced" opts then [ false; true ] else [ false ] in
  let ws =
    match List.filter_map (fun (k, v) -> if k = "--workload" then Some v else None) opts with
    | [] -> Workload.all
    | names -> List.map workload_of names
  in
  let runs = ref [] in
  for rep = 0 to repeat - 1 do
    let seed = seed + rep in
    List.iter
      (fun (w : Workload.t) ->
        List.iter
          (fun trace ->
            let lines, exit_code =
              child
                [
                  "--workload"; w.Workload.name; "--seed"; string_of_int seed;
                  "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
                ]
            in
            List.iter (fun l -> if l.[0] <> '{' then print_endline l) lines;
            let r = Record.parse_output ~workload:w.Workload.name ~seed ~trace ~exit_code lines in
            if not r.Record.correct then
              Printf.eprintf "%s seed %d trace %b: correctness gate failed (exit %d)\n%!"
                w.Workload.name seed trace exit_code;
            runs := r :: !runs)
          modes)
      (if rep mod 2 = 0 then ws else List.rev ws)
  done;
  let runs = List.rev !runs in
  Out_channel.with_open_text out (fun oc ->
      output_string oc (Record.to_json ~envelope:(Record.envelope ~seed ~seconds ~repeat) runs);
      output_char oc '\n');
  exit (if List.for_all (fun r -> r.Record.correct) runs then 0 else 1)

let compare_cmd args =
  let bench, rest =
    match args with "--bench" :: f :: rest -> (f, rest) | rest -> ("BENCHMARK.json", rest)
  in
  let rec split acc = function
    | [] -> die "compare needs OLD... -- NEW..."
    | "--" :: news -> (List.rev acc, news)
    | x :: r -> split (x :: acc) r
  in
  let olds, news = split [] rest in
  if olds = [] || news = [] then die "compare needs OLD... -- NEW...";
  let load files = List.concat_map Record.load files in
  exit
    (Record.compare ~gated:(Record.load_gated bench) ~old_runs:(load olds) ~new_runs:(load news))

let soak_w () = workload_of "small-closed"

let soak_one opts =
  let r = Runner.soak_run (soak_w ()) ~seed:(int_opt opts "--seed" ~default:1) in
  Runner.print_result r;
  exit (if r.Runner.correct then 0 else 1)

let soak_cmd opts =
  let runs = int_opt opts "--runs" ~default:10 in
  let seed = int_opt opts "--seed" ~default:1 in
  let w = soak_w () in
  let bad = ref 0 and lost = ref 0.0 and spurious = ref 0.0 in
  for i = 0 to runs - 1 do
    let seed = seed + i in
    let lines, exit_code = child [ "soak-one"; "--seed"; string_of_int seed ] in
    let r = Record.parse_output ~workload:w.Workload.name ~seed ~trace:false ~exit_code lines in
    let v k = Option.value ~default:0.0 (List.assoc_opt k r.Record.values) in
    Printf.printf "soak run %d seed %d: exit %d lost %g spurious_failures %g span_dropped %g\n%!" i
      seed exit_code (v "lost") (v "failed") (v "span_dropped");
    if not r.Record.correct then incr bad;
    lost := !lost +. v "lost";
    spurious := !spurious +. v "failed"
  done;
  Printf.printf "soak: %d runs of %d requests, %d failed a gate, %g lost, %g spurious failures\n"
    runs Runner.soak_requests !bad !lost !spurious;
  exit (if !bad = 0 then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest ->
    run_cmd (options [ "--seed"; "--workload"; "--traced"; "--repeat"; "--seconds"; "--out" ] rest)
  | _ :: "compare" :: rest -> compare_cmd rest
  | _ :: "soak" :: rest -> soak_cmd (options [ "--runs"; "--seed" ] rest)
  | _ :: "soak-one" :: rest -> soak_one (options [ "--seed" ] rest)
  | _ :: (x :: _ as rest) when String.starts_with ~prefix:"--" x ->
    single (options [ "--workload"; "--seed"; "--seconds"; "--trace" ] rest)
  | _ -> die "no command"
