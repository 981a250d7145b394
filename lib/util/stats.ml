let mean a =
  if Array.length a = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let sorted_copy a =
  let b = Array.copy a in
  Array.sort compare b;
  b

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: empty";
  let b = sorted_copy a in
  if n mod 2 = 1 then b.(n / 2) else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.0

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let b = sorted_copy a in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  let frac = rank -. floor rank in
  (b.(lo) *. (1.0 -. frac)) +. (b.(hi) *. frac)

type linfit = { slope : float; intercept : float; r2 : float }

let linear_fit pts =
  let n = Array.length pts in
  if n < 2 then invalid_arg "Stats.linear_fit: need at least 2 points";
  let fn = float_of_int n in
  let sx = ref 0.0 and sy = ref 0.0 and sxx = ref 0.0 and sxy = ref 0.0 in
  Array.iter
    (fun (x, y) ->
      sx := !sx +. x;
      sy := !sy +. y;
      sxx := !sxx +. (x *. x);
      sxy := !sxy +. (x *. y))
    pts;
  let denom = (fn *. !sxx) -. (!sx *. !sx) in
  if denom = 0.0 then invalid_arg "Stats.linear_fit: degenerate x values";
  let slope = ((fn *. !sxy) -. (!sx *. !sy)) /. denom in
  let intercept = (!sy -. (slope *. !sx)) /. fn in
  let ybar = !sy /. fn in
  let ss_tot = ref 0.0 and ss_res = ref 0.0 in
  Array.iter
    (fun (x, y) ->
      let fy = (slope *. x) +. intercept in
      ss_tot := !ss_tot +. ((y -. ybar) ** 2.0);
      ss_res := !ss_res +. ((y -. fy) ** 2.0))
    pts;
  let r2 = if !ss_tot = 0.0 then 1.0 else 1.0 -. (!ss_res /. !ss_tot) in
  { slope; intercept; r2 }
