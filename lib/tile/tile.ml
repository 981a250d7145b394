open Xsc_linalg

type t = {
  rows : int;
  cols : int;
  nb : int;
  mt : int;
  nt : int;
  tiles : Mat.t array array;
}

let create ~rows ~cols ~nb =
  if nb <= 0 then invalid_arg "Tile.create: nb must be positive";
  if rows mod nb <> 0 || cols mod nb <> 0 then
    invalid_arg "Tile.create: dimensions must be multiples of nb";
  let mt = rows / nb and nt = cols / nb in
  {
    rows;
    cols;
    nb;
    mt;
    nt;
    tiles = Array.init mt (fun _ -> Array.init nt (fun _ -> Mat.create nb nb));
  }

let tile t i j =
  if i < 0 || i >= t.mt || j < 0 || j >= t.nt then invalid_arg "Tile.tile: out of bounds";
  t.tiles.(i).(j)

let of_mat ~nb (a : Mat.t) =
  let t = create ~rows:a.rows ~cols:a.cols ~nb in
  for bi = 0 to t.mt - 1 do
    for bj = 0 to t.nt - 1 do
      Mat.blit_block ~src:a ~dst:t.tiles.(bi).(bj) ~src_row:(bi * nb) ~src_col:(bj * nb)
        ~dst_row:0 ~dst_col:0 ~rows:nb ~cols:nb
    done
  done;
  t

let to_mat t =
  let a = Mat.create t.rows t.cols in
  for bi = 0 to t.mt - 1 do
    for bj = 0 to t.nt - 1 do
      Mat.blit_block ~src:t.tiles.(bi).(bj) ~dst:a ~src_row:0 ~src_col:0
        ~dst_row:(bi * t.nb) ~dst_col:(bj * t.nb) ~rows:t.nb ~cols:t.nb
    done
  done;
  a

let copy t = { t with tiles = Array.map (Array.map Mat.copy) t.tiles }

let get t i j = Mat.get t.tiles.(i / t.nb).(j / t.nb) (i mod t.nb) (j mod t.nb)
let set t i j x = Mat.set t.tiles.(i / t.nb).(j / t.nb) (i mod t.nb) (j mod t.nb) x

let pad_to ~nb (a : Mat.t) =
  let n, m = Mat.dims a in
  if n <> m then invalid_arg "Tile.pad_to: not square";
  let padded = ((n + nb - 1) / nb) * nb in
  if padded = n then (Mat.copy a, n)
  else begin
    let b = Mat.init padded padded (fun i j -> if i = j && i >= n then 1.0 else 0.0) in
    Mat.blit_block ~src:a ~dst:b ~src_row:0 ~src_col:0 ~dst_row:0 ~dst_col:0 ~rows:n
      ~cols:n;
    (b, n)
  end

let tile_vec ~nb v =
  let n = Array.length v in
  if n mod nb <> 0 then invalid_arg "Tile.tile_vec: length not a multiple of nb";
  Array.init (n / nb) (fun i -> Array.sub v (i * nb) nb)

let untile_vec chunks = Array.concat (Array.to_list chunks)

let frobenius t =
  let acc = ref 0.0 in
  Array.iter
    (Array.iter (fun m ->
         let f = Mat.frobenius m in
         acc := !acc +. (f *. f)))
    t.tiles;
  sqrt !acc

let approx_equal ?(tol = 1e-10) a b =
  a.rows = b.rows && a.cols = b.cols && a.nb = b.nb
  &&
  let ok = ref true in
  for i = 0 to a.mt - 1 do
    for j = 0 to a.nt - 1 do
      if not (Mat.approx_equal ~tol a.tiles.(i).(j) b.tiles.(i).(j)) then ok := false
    done
  done;
  !ok
