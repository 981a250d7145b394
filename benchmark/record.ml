(* Bench records (what `run --out` writes) and `compare`, which judges two
   sets of records with the bounds in BENCHMARK.json. *)

module Json = Xsc_util.Json

let schema = "xsc-benchmark/1"

type run = {
  workload : string;
  seed : int;
  trace : bool;
  exit_code : int;
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;  (** every printed metric and diagnostic *)
}

(* ---- reading a child's output ---- *)

let parse_output ~workload ~seed ~trace ~exit_code lines =
  let values =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ w; name; v; _unit ] when w = workload -> (
          match float_of_string_opt v with Some x -> Some (name, x) | None -> None)
        | _ -> None)
      lines
  in
  let summary =
    match List.rev lines with
    | last :: _ -> ( try Some (Json.parse last) with Failure _ -> None)
    | [] -> None
  in
  let field f k = Option.bind summary (Json.member k) |> Option.map f in
  let num = function Json.Num x -> int_of_float x | _ -> 0 in
  {
    workload;
    seed;
    trace;
    exit_code;
    correct =
      exit_code = 0 && field (function Json.Bool b -> b | _ -> false) "correct" = Some true;
    attempted = Option.value ~default:0 (field num "attempted");
    failed = Option.value ~default:0 (field num "failed");
    values;
  }

(* ---- envelope and record file ---- *)

let first_line_of_command cmd =
  try
    let ic = Unix.open_process_in cmd in
    let l = In_channel.input_line ic in
    match (Unix.close_process_in ic, l) with Unix.WEXITED 0, Some s -> String.trim s | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

let cpu_model () =
  try
    In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> "unknown"
          | Some l when String.starts_with ~prefix:"model name" l -> (
            match String.index_opt l ':' with
            | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
            | None -> "unknown")
          | Some _ -> go ()
        in
        go ())
  with Sys_error _ -> "unknown"

let envelope ~seed ~seconds ~repeat =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("git_rev", Json.Str (first_line_of_command "git rev-parse HEAD 2>/dev/null"));
      ("hostname", Json.Str (Unix.gethostname ()));
      ("cpu_model", Json.Str (cpu_model ()));
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("seed", Json.Num (float_of_int seed));
      ("nb", Json.Num (float_of_int (Xsc_tile.Packed.tuned_nb ~fallback:64)));
      ("seconds", Json.Num seconds);
      ("repeat", Json.Num (float_of_int repeat));
    ]

let run_json r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", Json.Num (float_of_int r.seed));
      ("trace", Json.Bool r.trace);
      ("exit", Json.Num (float_of_int r.exit_code));
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.values));
    ]

let to_json ~envelope runs =
  Runner.json_to_string
    (Json.Obj
       [ ("schema", Json.Str schema); ("envelope", envelope); ("runs", Json.List (List.map run_json runs)) ])

let load file =
  let j = Json.parse (In_channel.with_open_text file In_channel.input_all) in
  let runs = match Json.member "runs" j with Some (Json.List l) -> l | _ -> failwith (file ^ ": no runs") in
  List.map
    (fun r ->
      let get k = Json.member k r in
      let num k = match get k with Some (Json.Num x) -> x | _ -> 0.0 in
      let bool k = match get k with Some (Json.Bool b) -> b | _ -> false in
      {
        workload = (match get "workload" with Some (Json.Str s) -> s | _ -> "?");
        seed = int_of_float (num "seed");
        trace = bool "trace";
        exit_code = int_of_float (num "exit");
        correct = bool "correct";
        attempted = int_of_float (num "attempted");
        failed = int_of_float (num "failed");
        values =
          (match get "metrics" with
          | Some (Json.Obj kv) ->
            List.filter_map (function k, Json.Num x -> Some (k, x) | _ -> None) kv
          | _ -> []);
      })
    runs

(* ---- BENCHMARK.json ---- *)

type gated = { metric : string; better : Catalog.better; bound : float; floor : float }

let load_gated file =
  let j = Json.parse (In_channel.with_open_text file In_channel.input_all) in
  match Json.member "end_to_end" j with
  | Some (Json.List l) ->
    List.map
      (fun m ->
        match (Json.member "name" m, Json.member "better" m, Json.member "bound" m) with
        | Some (Json.Str metric), Some (Json.Str b), Some (Json.Num bound) ->
          {
            metric;
            better = (if b = "higher" then Catalog.Higher else Catalog.Lower);
            bound;
            floor = Catalog.floor metric;
          }
        | _ -> failwith (file ^ ": malformed end_to_end entry"))
      l
  | _ -> failwith (file ^ ": no end_to_end list")

(* ---- statistics ---- *)

let median xs = Xsc_util.Stats.median (Array.of_list xs)

(* Quartiles as Python's statistics.quantiles(xs, n=4) gives them (the
   'exclusive' method), so a spread computed here matches one computed
   from the same values there. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

(* ---- compare ---- *)

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

type row = {
  r_workload : string;
  r_metric : string;
  old_values : float list;
  new_values : float list;
  change : float;  (** relative change of the median, positive = worse *)
  verdict : verdict;
  r_bound : float;
}

(* A side's spread is too wide to judge when its interquartile range
   exceeds the tolerance: the bound's share of its median, or the floor.
   Then only a clean separation decides: every new run better than every
   old one is an improvement, every one worse a regression. *)
let judge g ~old_values ~new_values =
  let sign = match g.better with Catalog.Lower -> 1.0 | Catalog.Higher -> -1.0 in
  let mo = median old_values and mn = median new_values in
  let tolerance xs = Float.max (g.bound *. Float.abs (median xs)) g.floor in
  let wide xs =
    let q1, q3 = quartiles xs in
    q3 -. q1 > tolerance xs
  in
  let worse = sign *. (mn -. mo) in
  let beats x y = sign *. (x -. y) < 0.0 in
  let every rel = List.for_all (fun n -> List.for_all (fun o -> rel n o) old_values) new_values in
  let verdict =
    if wide old_values || wide new_values then
      if every beats then Improved
      else if every (fun n o -> beats o n) then Regressed
      else Unresolved
    else if worse > tolerance old_values then Regressed
    else if worse < -.tolerance old_values then Improved
    else Unchanged
  in
  ((if mo <> 0.0 then worse /. Float.abs mo else 0.0), verdict)

let values_of runs ~workload ~metric =
  List.filter_map
    (fun r -> if r.workload = workload && not r.trace then List.assoc_opt metric r.values else None)
    runs

let rows ~gated ~old_runs ~new_runs =
  List.concat_map
    (fun (w : Workload.t) ->
      List.filter_map
        (fun g ->
          let old_values = values_of old_runs ~workload:w.Workload.name ~metric:g.metric in
          let new_values = values_of new_runs ~workload:w.Workload.name ~metric:g.metric in
          if old_values = [] || new_values = [] then None
          else
            let change, verdict = judge g ~old_values ~new_values in
            Some
              {
                r_workload = w.Workload.name;
                r_metric = g.metric;
                old_values;
                new_values;
                change;
                verdict;
                r_bound = g.bound;
              })
        gated)
    Workload.all

(* Pooled share of offered requests that missed (refused, failed, wrong,
   lost or over the limit), over the untraced runs. *)
let miss_frac runs =
  let get k r = Option.value ~default:0.0 (List.assoc_opt k r.values) in
  let untraced = List.filter (fun r -> not r.trace) runs in
  let offered = List.fold_left (fun acc r -> acc +. get "offered" r) 0.0 untraced in
  let missed = List.fold_left (fun acc r -> acc +. (get "miss_frac" r *. get "offered" r)) 0.0 untraced in
  if offered > 0.0 then missed /. offered else 0.0

let print_rows rows =
  Printf.printf "%-13s %-15s %12s %25s %12s %25s %8s %6s  %s\n" "workload" "metric" "old median"
    "old quartiles" "new median" "new quartiles" "change" "bound" "verdict";
  List.iter
    (fun r ->
      let q xs =
        let a, b = quartiles xs in
        Printf.sprintf "[%.5g, %.5g]" a b
      in
      Printf.printf "%-13s %-15s %12.5g %25s %12.5g %25s %+7.1f%% %5.0f%%  %s\n" r.r_workload r.r_metric
        (median r.old_values) (q r.old_values) (median r.new_values) (q r.new_values)
        (100.0 *. r.change) (100.0 *. r.r_bound) (verdict_name r.verdict))
    rows

(* 0 when nothing regressed and no more requests missed; 1 otherwise.
   Unresolved rows do not fail, but are listed: they were not judged. *)
let compare ~gated ~old_runs ~new_runs =
  let rows = rows ~gated ~old_runs ~new_runs in
  print_rows rows;
  let mo = miss_frac old_runs and mn = miss_frac new_runs in
  Printf.printf "miss_frac old %.6g new %.6g\n" mo mn;
  let named v =
    List.filter_map
      (fun r -> if r.verdict = v then Some (r.r_workload ^ " " ^ r.r_metric) else None)
      rows
  in
  let report v =
    let l = named v in
    Printf.printf "%s: %d of %d rows%s\n" (verdict_name v) (List.length l) (List.length rows)
      (if l = [] then "" else " (" ^ String.concat ", " l ^ ")")
  in
  report Regressed;
  report Unresolved;
  if named Regressed <> [] || mn > mo then 1 else 0
