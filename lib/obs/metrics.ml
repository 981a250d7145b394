(* Counters shard by domain id: Atomic.fetch_and_add is exact under any
   interleaving, and distinct domains usually land on distinct shards so
   the cache line bouncing of a single global cell is avoided. Gauges and
   histogram sums hold floats behind a CAS loop (OCaml [Atomic.t] on boxed
   floats compares the box physically, so a lost race is detected and
   retried). *)

type counter = { shards : int Atomic.t array; mask : int }
type gauge = { cell : float Atomic.t }

let n_buckets = 64

(* bucket i covers [2^(i-41), 2^(i-40)): frexp exponent e means the value
   is in [2^(e-1), 2^e) *)
type histogram = {
  buckets : int Atomic.t array;
  hsum : float Atomic.t;
  hcount : int Atomic.t;
}

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_mu = Mutex.create ()

let domain_index () = (Domain.self () :> int)

let rec next_pow2 n = if n land (n - 1) = 0 then n else next_pow2 (n + (n land -n))

let register name make describe =
  Mutex.lock registry_mu;
  let m =
    match Hashtbl.find_opt registry name with
    | Some existing -> existing
    | None ->
      let m = make () in
      Hashtbl.add registry name m;
      m
  in
  Mutex.unlock registry_mu;
  match describe m with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Metrics: %S already registered as another type" name)

let counter ?(shards = 16) name =
  if shards <= 0 then invalid_arg "Metrics.counter: shards must be positive";
  let shards = next_pow2 shards in
  register name
    (fun () -> C { shards = Array.init shards (fun _ -> Atomic.make 0); mask = shards - 1 })
    (function C c -> Some c | _ -> None)

let incr c = ignore (Atomic.fetch_and_add c.shards.(domain_index () land c.mask) 1)
let add c n = ignore (Atomic.fetch_and_add c.shards.(domain_index () land c.mask) n)
let add_to_shard c ~shard n = ignore (Atomic.fetch_and_add c.shards.(shard land c.mask) n)
let counter_value c = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c.shards

let gauge name =
  register name
    (fun () -> G { cell = Atomic.make 0.0 })
    (function G g -> Some g | _ -> None)

let set_gauge g v = Atomic.set g.cell v
let gauge_value g = Atomic.get g.cell

let rec atomic_add_float a x =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (old +. x)) then atomic_add_float a x

let histogram name =
  register name
    (fun () ->
      H
        {
          buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
          hsum = Atomic.make 0.0;
          hcount = Atomic.make 0;
        })
    (function H h -> Some h | _ -> None)

let bucket_of v =
  if v <= 0.0 then 0
  else begin
    let _, e = Stdlib.frexp v in
    min (n_buckets - 1) (max 0 (e + 40))
  end

let bucket_upper i = ldexp 1.0 (i - 40)

let observe h v =
  ignore (Atomic.fetch_and_add h.buckets.(bucket_of v) 1);
  ignore (Atomic.fetch_and_add h.hcount 1);
  atomic_add_float h.hsum v

let observe_n h v ~n =
  if n < 0 then invalid_arg "Metrics.observe_n: negative count";
  if n > 0 then begin
    ignore (Atomic.fetch_and_add h.buckets.(bucket_of v) n);
    ignore (Atomic.fetch_and_add h.hcount n);
    atomic_add_float h.hsum (v *. float_of_int n)
  end

let histogram_count h = Atomic.get h.hcount
let histogram_sum h = Atomic.get h.hsum

let quantile h q =
  let total = histogram_count h in
  if total = 0 then 0.0
  else begin
    let target = max 1 (int_of_float (ceil (q *. float_of_int total))) in
    let acc = ref 0 and result = ref (bucket_upper (n_buckets - 1)) in
    (try
       for i = 0 to n_buckets - 1 do
         acc := !acc + Atomic.get h.buckets.(i);
         if !acc >= target then begin
           result := bucket_upper i;
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

type hist_summary = {
  count : int;
  sum : float;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of hist_summary

let snapshot () =
  Mutex.lock registry_mu;
  let items = Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [] in
  Mutex.unlock registry_mu;
  items
  |> List.map (fun (name, m) ->
         let v =
           match m with
           | C c -> Counter (counter_value c)
           | G g -> Gauge (gauge_value g)
           | H h ->
             Histogram
               {
                 count = histogram_count h;
                 sum = histogram_sum h;
                 p50 = quantile h 0.5;
                 p95 = quantile h 0.95;
                 p99 = quantile h 0.99;
                 p999 = quantile h 0.999;
               }
         in
         (name, v))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let delta ~before ~after =
  let prior = Hashtbl.create 64 in
  List.iter (fun (name, v) -> Hashtbl.replace prior name v) before;
  List.map
    (fun (name, v) ->
      let v' =
        match (v, Hashtbl.find_opt prior name) with
        | Counter a, Some (Counter b) -> Counter (a - b)
        | Histogram a, Some (Histogram b) ->
          (* count and sum subtract exactly; bucket quantiles are
             cumulative and cannot, so they stay the [after] estimates *)
          Histogram { a with count = a.count - b.count; sum = a.sum -. b.sum }
        | _ -> v (* gauges are levels, new instruments have no prior *)
      in
      (name, v'))
    after

let to_json () =
  let module J = Xsc_util.Json in
  let items = snapshot () in
  let section pick =
    J.Obj (List.filter_map (fun (name, v) -> Option.map (fun j -> (name, j)) (pick v)) items)
  in
  J.Obj
    [
      ("counters", section (function Counter n -> Some (J.int n) | _ -> None));
      ("gauges", section (function Gauge f -> Some (J.Num f) | _ -> None));
      ( "histograms",
        section (function
          | Histogram h ->
            Some
              (J.Obj
                 [
                   ("count", J.int h.count);
                   ("sum", J.Num h.sum);
                   ("mean", J.Num (if h.count = 0 then 0.0 else h.sum /. float_of_int h.count));
                   ("p50", J.Num h.p50);
                   ("p95", J.Num h.p95);
                   ("p99", J.Num h.p99);
                   ("p999", J.Num h.p999);
                 ])
          | _ -> None) );
    ]

let reset () =
  Mutex.lock registry_mu;
  Hashtbl.iter
    (fun _ m ->
      match m with
      | C c -> Array.iter (fun a -> Atomic.set a 0) c.shards
      | G g -> Atomic.set g.cell 0.0
      | H h ->
        Array.iter (fun a -> Atomic.set a 0) h.buckets;
        Atomic.set h.hsum 0.0;
        Atomic.set h.hcount 0)
    registry;
  Mutex.unlock registry_mu
