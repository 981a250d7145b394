(* Process-wide scratch pools for the serving layer: packed-matrix
   Bigarrays and float-array vectors recycled across same-class requests.

   One bounded freelist per size class, shared by every domain behind one
   mutex. A request's buffer is acquired by its pack task on one pool lane
   and released by its completion on whichever lane drained the job, so a
   per-domain freelist loses a buffer whenever the releasing lane's list
   is full, and strands a whole list when its domain exits (each
   [Server.start] spawns fresh pool domains; a dead domain's buffers live
   on until a major GC finalizes them). A shared list has neither leak.
   The lock is held for a hashtable lookup and a cons, four times per
   dense request (a buffer and a vector, each acquired and released) —
   far off any per-element loop. *)

module PD = Xsc_tile.Packed.D
module Metrics = Xsc_obs.Metrics

let m_hits = Metrics.counter "serve.scratch.hits"
let m_misses = Metrics.counter "serve.scratch.misses"

(* Per-class freelist bound. A list only grows to the largest number of
   same-class requests ever in flight at once; the bound caps what an idle
   server keeps after a burst beyond that. 32 covers a closed loop of 32
   outstanding small solves without a miss. *)
let max_per_class = 32

let mu = Mutex.create ()
let packed : (int * int, PD.t list) Hashtbl.t = Hashtbl.create 8 (* (n, nb) *)
let vecs : (int, float array list) Hashtbl.t = Hashtbl.create 8 (* length *)

let take tbl key =
  Mutex.lock mu;
  let r =
    match Hashtbl.find_opt tbl key with
    | Some (x :: rest) ->
      Hashtbl.replace tbl key rest;
      Some x
    | Some [] | None -> None
  in
  Mutex.unlock mu;
  r

let give tbl key x =
  Mutex.lock mu;
  let fl = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
  if List.length fl < max_per_class then Hashtbl.replace tbl key (x :: fl);
  Mutex.unlock mu

let acquire_packed ~n ~nb =
  match take packed (n, nb) with
  | Some buf ->
    Metrics.incr m_hits;
    buf
  | None ->
    Metrics.incr m_misses;
    PD.create ~n ~nb

let release_packed (buf : PD.t) = give packed (buf.PD.n, buf.PD.nb) buf

let acquire_vec len =
  match take vecs len with
  | Some v ->
    Metrics.incr m_hits;
    v
  | None ->
    Metrics.incr m_misses;
    Array.make len 0.0

let release_vec (v : float array) = give vecs (Array.length v) v

let hits () = Metrics.counter_value m_hits
let misses () = Metrics.counter_value m_misses
