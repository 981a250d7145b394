type align = Left | Right

type t = { headers : string list; mutable rows : string list list }

let create ~headers = { headers; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Table.add_row: arity mismatch with headers";
  t.rows <- row :: t.rows

let looks_numeric s =
  s <> ""
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+' || c = 'e' || c = 'x' || c = '%')
       s

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render ?align t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let cell_align i cell =
    match align with
    | Some a -> a
    | None -> if i = 0 then Left else if looks_numeric cell then Right else Left
  in
  let render_row row =
    row
    |> List.mapi (fun i cell -> pad (cell_align i cell) widths.(i) cell)
    |> String.concat "  "
  in
  let sep =
    Array.to_list widths |> List.map (fun w -> String.make w '-') |> String.concat "  "
  in
  let header = render_row t.headers in
  String.concat "\n" (header :: sep :: List.map render_row rows)

let print ?align t =
  print_string (render ?align t);
  print_newline ()
