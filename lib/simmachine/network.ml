type t = {
  alpha : float;
  beta : float;
  per_hop : float;
  topology : Topology.t;
}

let create ?(alpha = 1e-6) ?(beta = 1e-10) ?(per_hop = 5e-8) topology =
  if alpha < 0.0 || beta < 0.0 || per_hop < 0.0 then
    invalid_arg "Network.create: negative cost parameter";
  { alpha; beta; per_hop; topology }

(* Average hop distance is memoised per topology (topologies are small pure
   values, so structural hashing is safe). *)
let avg_cache : (Topology.t, float) Hashtbl.t = Hashtbl.create 16

let avg_hops t =
  match Hashtbl.find_opt avg_cache t.topology with
  | Some h -> h
  | None ->
    let h = Topology.average_hops t.topology in
    Hashtbl.add avg_cache t.topology h;
    h

let ptp_avg t ~bytes = t.alpha +. (t.per_hop *. avg_hops t) +. (t.beta *. bytes)

let rounds p =
  if p <= 1 then 0
  else begin
    let rec go acc v = if v >= p then acc else go (acc + 1) (2 * v) in
    go 0 1
  end

let hop_cost t = t.per_hop *. avg_hops t

let bcast_time t ~ranks ~bytes =
  float_of_int (rounds ranks) *. (t.alpha +. hop_cost t +. (t.beta *. bytes))

let allreduce_time t ~ranks ~bytes =
  float_of_int (rounds ranks) *. (t.alpha +. hop_cost t +. (t.beta *. bytes))

let barrier_time t ~ranks = float_of_int (rounds ranks) *. (t.alpha +. hop_cost t)
