type entry = { task : int; name : string; worker : int; start : float; finish : float }

type t = { workers : int; mutable entries : entry list; mutable makespan : float; mutable busy : float }

let create ~workers =
  if workers <= 0 then invalid_arg "Trace.create: workers must be positive";
  { workers; entries = []; makespan = 0.0; busy = 0.0 }

let add t e =
  if e.finish < e.start then invalid_arg "Trace.add: finish before start";
  if e.worker < 0 || e.worker >= t.workers then invalid_arg "Trace.add: bad worker";
  t.entries <- e :: t.entries;
  if e.finish > t.makespan then t.makespan <- e.finish;
  t.busy <- t.busy +. (e.finish -. e.start)

let entries t = List.sort (fun a b -> compare a.start b.start) t.entries

let makespan t = t.makespan
let busy_time t = t.busy

let utilization t =
  if t.makespan <= 0.0 then 0.0 else t.busy /. (float_of_int t.workers *. t.makespan)

let workers t = t.workers

let to_chrome_json ?(extra = []) t =
  let module J = Xsc_util.Json in
  let event e =
    J.Obj
      [
        ("name", J.Str e.name);
        ("ph", J.Str "X");
        ("ts", J.Num (e.start *. 1e6));
        ("dur", J.Num ((e.finish -. e.start) *. 1e6));
        ("pid", J.int 0);
        ("tid", J.int e.worker);
        ("args", J.Obj [ ("task", J.int e.task) ]);
      ]
  in
  J.to_string (J.List (List.map event (entries t) @ extra))

let family_of name =
  match String.index_opt name '(' with
  | Some i -> String.sub name 0 i
  | None -> name

let by_kernel t =
  let tbl : (string, float * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let family = family_of e.name in
      let time, count = Option.value ~default:(0.0, 0) (Hashtbl.find_opt tbl family) in
      Hashtbl.replace tbl family (time +. (e.finish -. e.start), count + 1))
    t.entries;
  Hashtbl.fold (fun name (time, count) acc -> (name, time, count) :: acc) tbl []
  |> List.sort (fun (_, t1, _) (_, t2, _) -> compare t2 t1)

let by_kernel_rates t ~flops_of =
  let tbl : (string, float * int * float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let family = family_of e.name in
      let time, count, flops =
        Option.value ~default:(0.0, 0, 0.0) (Hashtbl.find_opt tbl family)
      in
      Hashtbl.replace tbl family
        (time +. (e.finish -. e.start), count + 1, flops +. flops_of e.task))
    t.entries;
  Hashtbl.fold
    (fun name (time, count, flops) acc ->
      let rate = if time > 0.0 then flops /. time else 0.0 in
      (name, time, count, rate) :: acc)
    tbl []
  |> List.sort (fun (_, t1, _, _) (_, t2, _, _) -> compare t2 t1)

let gantt ?(width = 72) t =
  if t.makespan <= 0.0 then "(empty trace)"
  else begin
    let rows = Array.init t.workers (fun _ -> Bytes.make width '.') in
    List.iter
      (fun e ->
        let c0 = int_of_float (e.start /. t.makespan *. float_of_int width) in
        let c0 = min (width - 1) (max 0 c0) in
        let c1 = int_of_float (e.finish /. t.makespan *. float_of_int width) in
        let c1 = min (width - 1) (max c0 c1) in
        for c = c0 to c1 do
          Bytes.set rows.(e.worker) c '#'
        done)
      t.entries;
    let buf = Buffer.create (t.workers * (width + 8)) in
    Array.iteri
      (fun w row -> Buffer.add_string buf (Printf.sprintf "w%02d |%s|\n" w (Bytes.to_string row)))
      rows;
    Buffer.add_string buf
      (Printf.sprintf "makespan %s, utilization %s\n"
         (Xsc_util.Units.seconds t.makespan)
         (Xsc_util.Units.percent (utilization t)));
    Buffer.contents buf
  end
