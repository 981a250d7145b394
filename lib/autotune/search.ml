type 'a evaluation = { candidate : 'a; cost : float }

let best_of evals =
  match evals with
  | [] -> invalid_arg "Search: empty evaluation list"
  | first :: rest ->
    List.fold_left (fun acc e -> if e.cost < acc.cost then e else acc) first rest

let grid ~candidates ~f =
  if candidates = [] then invalid_arg "Search.grid: no candidates";
  let evals = List.map (fun c -> { candidate = c; cost = f c }) candidates in
  (evals, best_of evals)

let hill_climb ?(max_steps = 100) ~neighbours ~start f =
  (* memoised: each step re-reaches the point it just left and neighbours
     it has already rejected *)
  let seen = Hashtbl.create 16 in
  let eval c =
    match Hashtbl.find_opt seen c with
    | Some cost -> { candidate = c; cost }
    | None ->
      let cost = f c in
      Hashtbl.add seen c cost;
      { candidate = c; cost }
  in
  let rec go current steps =
    if steps >= max_steps then current
    else begin
      let options = List.map eval (neighbours current.candidate) in
      match options with
      | [] -> current
      | _ ->
        let best = best_of options in
        if best.cost < current.cost then go best (steps + 1) else current
    end
  in
  go (eval start) 0

let successive_halving ?(eta = 2) ~candidates ~budget0 f =
  if eta < 2 then invalid_arg "Search.successive_halving: eta must be >= 2";
  if candidates = [] then invalid_arg "Search.successive_halving: no candidates";
  if budget0 <= 0 then invalid_arg "Search.successive_halving: budget must be positive";
  let rec round pool budget =
    let evals = List.map (fun c -> { candidate = c; cost = f c ~budget }) pool in
    match evals with
    | [ only ] -> only
    | _ ->
      let sorted = List.sort (fun a b -> compare a.cost b.cost) evals in
      let keep = max 1 (List.length sorted / eta) in
      let survivors = List.filteri (fun i _ -> i < keep) sorted in
      if List.length survivors = 1 then List.hd survivors
      else round (List.map (fun e -> e.candidate) survivors) (budget * eta)
  in
  round candidates budget0
