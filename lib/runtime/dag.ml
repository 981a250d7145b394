type t = {
  tasks : Task.t array;
  succs : int list array;
  preds : int list array;
  indegree : int array;
  level : int array;
  levels : int list array;
}

let build task_list =
  let tasks = Array.of_list task_list in
  let n = Array.length tasks in
  Array.iteri
    (fun i t -> if t.Task.id <> i then invalid_arg "Dag.build: tasks must be numbered in order")
    tasks;
  let succs = Array.make n [] and preds = Array.make n [] in
  let edge_set = Hashtbl.create (4 * n) in
  let add_edge src dst =
    if src <> dst && not (Hashtbl.mem edge_set (src, dst)) then begin
      Hashtbl.add edge_set (src, dst) ();
      succs.(src) <- dst :: succs.(src);
      preds.(dst) <- src :: preds.(dst)
    end
  in
  (* per-datum bookkeeping in program order *)
  let last_writer : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let readers_since_write : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun task ->
      let id = task.Task.id in
      List.iter
        (fun d ->
          match Hashtbl.find_opt last_writer d with
          | Some w -> add_edge w id (* RAW *)
          | None -> ())
        (Task.reads task);
      List.iter
        (fun d ->
          (* WAW *)
          (match Hashtbl.find_opt last_writer d with Some w -> add_edge w id | None -> ());
          (* WAR *)
          List.iter
            (fun r -> add_edge r id)
            (Option.value ~default:[] (Hashtbl.find_opt readers_since_write d));
          Hashtbl.replace last_writer d id;
          Hashtbl.replace readers_since_write d [])
        (Task.writes task);
      List.iter
        (fun d ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt readers_since_write d) in
          Hashtbl.replace readers_since_write d (id :: cur))
        (Task.reads task))
    tasks;
  let indegree = Array.map List.length preds in
  (* levels by topological sweep (ids ascend along program order, and all
     edges go forward in program order by construction) *)
  let level = Array.make n 0 in
  for i = 0 to n - 1 do
    List.iter (fun p -> if level.(p) + 1 > level.(i) then level.(i) <- level.(p) + 1) preds.(i)
  done;
  let depth = Array.fold_left (fun acc l -> max acc (l + 1)) 0 level in
  let levels = Array.make (max depth 1) [] in
  for i = n - 1 downto 0 do
    levels.(level.(i)) <- i :: levels.(level.(i))
  done;
  { tasks; succs; preds; indegree; level; levels }

let n_tasks t = Array.length t.tasks

let n_edges t = Array.fold_left (fun acc l -> acc + List.length l) 0 t.succs

let depth t = Array.length t.levels

let total_flops t = Array.fold_left (fun acc task -> acc +. task.Task.flops) 0.0 t.tasks

let bottom_level t =
  let n = n_tasks t in
  let bl = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let best = List.fold_left (fun acc s -> max acc bl.(s)) 0.0 t.succs.(i) in
    bl.(i) <- t.tasks.(i).Task.flops +. best
  done;
  bl

let critical_path_flops t =
  if n_tasks t = 0 then 0.0 else Array.fold_left max 0.0 (bottom_level t)

let sources t =
  let acc = ref [] in
  for i = n_tasks t - 1 downto 0 do
    if t.indegree.(i) = 0 then acc := i :: !acc
  done;
  !acc

let validate_schedule t ~order =
  let n = n_tasks t in
  let position = Array.make n (-1) in
  let count = ref 0 in
  let ok = ref true in
  List.iteri
    (fun pos id ->
      if id < 0 || id >= n || position.(id) >= 0 then ok := false
      else begin
        position.(id) <- pos;
        incr count
      end)
    order;
  if !count <> n then ok := false;
  if !ok then
    Array.iteri
      (fun i ss ->
        List.iter (fun s -> if position.(i) >= position.(s) then ok := false) ss)
      t.succs;
  !ok
