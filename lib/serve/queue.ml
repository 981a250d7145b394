(* Bounded MPMC ring under one mutex. The lock is held for a handful of
   instructions per operation — array slot write and index bump — so even
   on the ingestion fast path contention is on the order of an uncontended
   futex, far below the cost of the smallest solve. The hard invariant is
   the bound: [length] can never exceed [capacity] under any interleaving
   of producers, because admission is decided inside the same critical
   section as the slot write. *)

type 'a t = {
  buf : 'a option array;
  cap : int;
  mutable head : int;  (* next pop position *)
  mutable len : int;
  mutable closed : bool;
  mu : Mutex.t;
}

type push_result =
  | Accepted
  | Full
  | Closed

let create ~capacity =
  if capacity <= 0 then invalid_arg "Serve.Queue.create: capacity must be positive";
  {
    buf = Array.make capacity None;
    cap = capacity;
    head = 0;
    len = 0;
    closed = false;
    mu = Mutex.create ();
  }

let capacity t = t.cap

let try_push t x =
  Mutex.lock t.mu;
  let r =
    if t.closed then Closed
    else if t.len >= t.cap then Full
    else begin
      t.buf.((t.head + t.len) mod t.cap) <- Some x;
      t.len <- t.len + 1;
      Accepted
    end
  in
  Mutex.unlock t.mu;
  r

let try_pop t =
  Mutex.lock t.mu;
  let r =
    if t.len = 0 then None
    else begin
      let x = t.buf.(t.head) in
      t.buf.(t.head) <- None;
      (* free the slot for the GC *)
      t.head <- (t.head + 1) mod t.cap;
      t.len <- t.len - 1;
      x
    end
  in
  Mutex.unlock t.mu;
  r

let length t =
  Mutex.lock t.mu;
  let n = t.len in
  Mutex.unlock t.mu;
  n

let close t =
  Mutex.lock t.mu;
  t.closed <- true;
  Mutex.unlock t.mu
