(* The one client thread: sends a workload's arrivals to a server, checks
   every completion bitwise against its oracle as it arrives, keeps only
   the timings, and drops the answer.

   Open-loop latency runs from the scheduled send time (finish - due), so
   a stall also charges the requests it delayed; closed-loop latency runs
   from submit. A watchdog thread bounds every wait: when no request
   resolves for [limit_s], the requests still unresolved are counted as
   lost and [on_hang] ends the process instead of letting it hang. *)

open Xsc_serve
module Clock = Xsc_obs.Clock

module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n

  (* 0 for an empty buffer: a layer the run never entered *)
  let pct b p = if b.n = 0 then 0.0 else Xsc_util.Stats.percentile (to_array b) p
end

type class_tally = {
  lat_ms : Fbuf.t;  (** successful requests only *)
  queue_wait_ms : Fbuf.t;
  service_ms : Fbuf.t;
  mutable offered : int;
  mutable admitted : int;
  mutable rejected : int;
  mutable ok : int;
  mutable failed : int;  (** typed failures *)
  mutable wrong : int;  (** completed, but not bitwise equal to the oracle *)
  mutable over_limit : int;  (** latency above the class deadline *)
}

(* One completed request, kept only when the traced ledger needs it. *)
type done_rec = {
  id : int;
  start_ns : int;  (** due time (open loop) or submit time (closed loop) *)
  submit_ns : int;
  finish_ns : int;
  retries : int;
}

type tally = {
  classes : class_tally array;
  late_ms : Fbuf.t;  (** send time - due time, open loop only *)
  submit_us : Fbuf.t;  (** duration of the [Server.submit] call *)
  notify_us : Fbuf.t;  (** resolution -> client wake-up, blocking awaits only *)
  mutable retries : int;
  mutable unresolved : unit -> int;
      (** admitted requests not resolved yet, for the watchdog *)
  mutable server_state : unit -> string;  (** the server's counters, for a hang report *)
  mutable errors : string list;  (** distinct failure messages *)
  mutable done_ : done_rec list;
  mutable wall_s : float;
  mutable cpu_s : float;
}

let create_tally n =
  {
    classes =
      Array.init n (fun _ ->
          {
            lat_ms = Fbuf.create ();
            queue_wait_ms = Fbuf.create ();
            service_ms = Fbuf.create ();
            offered = 0;
            admitted = 0;
            rejected = 0;
            ok = 0;
            failed = 0;
            wrong = 0;
            over_limit = 0;
          });
    late_ms = Fbuf.create ();
    submit_us = Fbuf.create ();
    notify_us = Fbuf.create ();
    retries = 0;
    unresolved = (fun () -> 0);
    server_state = (fun () -> "");
    errors = [];
    done_ = [];
    wall_s = 0.0;
    cpu_s = 0.0;
  }

let sum f t = Array.fold_left (fun acc c -> acc + f c) 0 t.classes
let offered t = sum (fun c -> c.offered) t
let completed t = sum (fun c -> c.ok + c.wrong) t

(* Operations that did not yield a right answer: refused, failed typed,
   wrong, or never resolved. *)
let failures t = sum (fun c -> c.rejected + c.failed + c.wrong) t + t.unresolved ()

let misses t = failures t + sum (fun c -> c.over_limit) t

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- watchdog ---- *)

module Watchdog = struct
  type t = { last : int Atomic.t; stopped : bool Atomic.t; thread : Thread.t }

  let start ~limit_s ~on_fire =
    let last = Atomic.make (Clock.now_ns ()) and stopped = Atomic.make false in
    let limit_ns = int_of_float (limit_s *. 1e9) in
    let rec loop () =
      if not (Atomic.get stopped) then begin
        Thread.delay 0.1;
        if (not (Atomic.get stopped)) && Clock.now_ns () - Atomic.get last > limit_ns then
          on_fire ()
        else loop ()
      end
    in
    { last; stopped; thread = Thread.create loop () }

  let beat w = Atomic.set w.last (Clock.now_ns ())

  let stop w =
    Atomic.set w.stopped true;
    Thread.join w.thread
end

(* ---- driving ---- *)

type pending = { tk : Server.ticket; p_cls : int; p_inst : int; due_abs : int }

let ns_of_s s = int_of_float (Float.round (s *. 1e9))

let drive srv (w : Workload.t) ~loop ~(instances : Workload.instance array array)
    ~(arrivals : Workload.arrival array) ~keep ~watchdog tally =
  let settle p (c : Request.completion) =
    let ct = tally.classes.(p.p_cls) in
    let cls = w.Workload.classes.(p.p_cls) in
    let r = c.Request.request in
    let finish_ns = r.Request.submit_ns + ns_of_s c.Request.total_s in
    let start_ns = match loop with Workload.Open -> p.due_abs | Closed _ -> r.Request.submit_ns in
    let lat_ms = float_of_int (finish_ns - start_ns) /. 1e6 in
    (match c.Request.outcome with
    | Ok sol ->
      if Loadgen.solutions_bitwise_equal sol instances.(p.p_cls).(p.p_inst).Workload.oracle then begin
        ct.ok <- ct.ok + 1;
        Fbuf.add ct.lat_ms lat_ms
      end
      else ct.wrong <- ct.wrong + 1
    | Error e ->
      ct.failed <- ct.failed + 1;
      let msg = Request.error_message e in
      if not (List.mem msg tally.errors) then tally.errors <- msg :: tally.errors);
    if lat_ms > cls.Workload.load.Loadgen.deadline_s *. 1e3 then ct.over_limit <- ct.over_limit + 1;
    Fbuf.add ct.queue_wait_ms (c.Request.queue_wait_s *. 1e3);
    Fbuf.add ct.service_ms (c.Request.service_s *. 1e3);
    tally.retries <- tally.retries + c.Request.retries;
    if keep then
      tally.done_ <-
        { id = r.Request.id; start_ns; submit_ns = r.Request.submit_ns; finish_ns; retries = c.Request.retries }
        :: tally.done_;
    Watchdog.beat watchdog
  in
  let settle_blocking p =
    match Server.poll srv p.tk with
    | Some c -> settle p c
    | None ->
      let c = Server.await srv p.tk in
      let woke = Clock.now_ns () in
      let r = c.Request.request in
      Fbuf.add tally.notify_us
        (float_of_int (woke - (r.Request.submit_ns + ns_of_s c.Request.total_s)) /. 1e3);
      settle p c
  in
  let submit (a : Workload.arrival) ~due_abs =
    let ct = tally.classes.(a.Workload.cls) in
    let cls = w.Workload.classes.(a.Workload.cls) in
    ct.offered <- ct.offered + 1;
    Watchdog.beat watchdog;
    let s0 = Clock.now_ns () in
    let res =
      Server.submit srv ~deadline_s:cls.Workload.load.Loadgen.deadline_s
        instances.(a.Workload.cls).(a.Workload.inst).Workload.payload
    in
    let s1 = Clock.now_ns () in
    match res with
    | Ok tk ->
      Fbuf.add tally.submit_us (float_of_int (s1 - s0) /. 1e3);
      if loop = Workload.Open then Fbuf.add tally.late_ms (float_of_int (s0 - due_abs) /. 1e6);
      ct.admitted <- ct.admitted + 1;
      Some { tk; p_cls = a.Workload.cls; p_inst = a.Workload.inst; due_abs }
    | Error _ ->
      ct.rejected <- ct.rejected + 1;
      None
  in
  let unresolved ps = List.length (List.filter (fun p -> Option.is_none (Server.poll srv p.tk)) ps) in
  tally.server_state <-
    (fun () ->
      let c = Server.counters srv in
      Printf.sprintf "server admitted %d, completed %d, failed %d, retried %d, in_flight %d"
        c.Server.admitted c.Server.completed c.Server.failed c.Server.retried
        (Server.in_flight srv));
  let cpu0 = cpu_now () in
  let t0 = Clock.now_ns () in
  (match loop with
  | Workload.Open ->
    let inflight = ref [] in
    tally.unresolved <- (fun () -> unresolved !inflight);
    let poll () =
      if !inflight <> [] then
        inflight :=
          List.filter
            (fun p ->
              match Server.poll srv p.tk with
              | Some c ->
                settle p c;
                false
              | None -> true)
            !inflight
    in
    Array.iter
      (fun (a : Workload.arrival) ->
        let due = t0 + a.Workload.due_ns in
        let rec wait () =
          poll ();
          let now = Clock.now_ns () in
          if now < due then begin
            Unix.sleepf (Float.min 0.001 (float_of_int (due - now) /. 1e9));
            wait ()
          end
        in
        wait ();
        match submit a ~due_abs:due with Some p -> inflight := p :: !inflight | None -> ())
      arrivals;
    List.iter settle_blocking (List.rev !inflight)
  | Workload.Closed outstanding ->
    let window = Stdlib.Queue.create () in
    tally.unresolved <- (fun () -> unresolved (List.of_seq (Stdlib.Queue.to_seq window)));
    Array.iter
      (fun a ->
        (* the awaited request stays in the window, where the watchdog sees it *)
        if Stdlib.Queue.length window >= outstanding then begin
          settle_blocking (Stdlib.Queue.peek window);
          ignore (Stdlib.Queue.pop window)
        end;
        match submit a ~due_abs:0 with Some p -> Stdlib.Queue.add p window | None -> ())
      arrivals;
    Stdlib.Queue.iter settle_blocking window);
  tally.wall_s <- float_of_int (Clock.now_ns () - t0) /. 1e9;
  tally.cpu_s <- cpu_now () -. cpu0

(* ---- reconciliation ---- *)

(* The accounting identities over one measured phase, from the client's
   tally and the server's counter deltas read after [stop]. Returns the
   identities that do not hold. *)
let reconcile ~(c0 : Server.counters) ~(c1 : Server.counters) ~in_flight ~raised tally =
  let d f = f c1 - f c0 in
  let admitted = sum (fun c -> c.admitted) tally in
  let rejected = sum (fun c -> c.rejected) tally in
  let checks =
    [
      ("offered = admitted + rejected", offered tally = admitted + rejected);
      ("server admitted = client admitted", d (fun c -> c.Server.admitted) = admitted);
      ("server rejected = client rejected", d (fun c -> c.Server.rejected) = rejected);
      ( "admitted = completed + failed",
        d (fun c -> c.Server.admitted) = d (fun c -> c.Server.completed) + d (fun c -> c.Server.failed) );
      ("server completed = client completed", d (fun c -> c.Server.completed) = completed tally);
      ("server failed = client failed", d (fun c -> c.Server.failed) = sum (fun c -> c.failed) tally);
      ("in_flight = 0", in_flight = 0);
      ("retried = client retries", d (fun c -> c.Server.retried) = tally.retries);
    ]
    @ match raised with Some r -> [ ("retried = harness raised", d (fun c -> c.Server.retried) = r) ] | None -> []
  in
  List.filter_map (fun (name, ok) -> if ok then None else Some name) checks
