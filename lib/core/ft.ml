(* Fault-tolerant tiled Cholesky: in-DAG ABFT detection, dependence-cone
   replay repair, and online checkpoint/restart over packed storage.

   The design is step-synchronised: each outer step k runs its panel sub-DAG
   (diagonal factorization + triangular solves + the checksum solve) through
   the real executor, verifies the checksum invariant for panel k, and only
   then releases the update sub-DAG. A corrupted tile in column j is read by
   no other task before panel j's verification (trailing tiles are consumed
   only once they become the panel), so damage is always detected before it
   can propagate — the verification point doubles as the propagation fence.

   The plain tasks of each step are the factorization's own program
   (Cholesky.panel/update, run through its packed interpreter); this module
   adds only the checksum tasks that ride them.

   Checksum scheme: one extra row of tiles C with
   C0(j) = sum_bi A(bi,j) over the full symmetric matrix. The row rides the
   factorization as two extra task kinds — C(k) <- C(k) L(k,k)^-T at panel k
   and C(j) -= C(k) L(j,k)^T at update k — which is algebraically a right
   multiplication by L^-T, so after panel k the invariant is

     C(k) = sum_bi L(bi,k)

   (the diagonal tile contributes its lower triangle only; tiles above the
   diagonal are zero in L). Cost is one trsm + (nt-1-k) gemms per step —
   ~1/nt of the factorization, the Abft.overhead_model budget.

   Repair is dependence-cone replay, not refactorization: column k is
   recomputed from the pristine input plus the already-verified final panels
   < k, in the exact program order of the original kernels, so the replayed
   tiles are bitwise identical to a fault-free run. Bitwise comparison
   against the stored column then locates the damaged tiles exactly, and
   only those are overwritten.

   Task-body exceptions surface from the executors as
   [Real_exec.Task_failed] after a clean abort; the driver rolls the matrix
   and checksum row back to the last snapshot (the pristine input when no
   checkpoint policy is given) and replays the remaining steps. Snapshots
   are taken every [every] completed steps and optionally persisted through
   {!Xsc_resilience.Checkpoint} (atomic, CRC-validated), so a fresh process
   handed the same input matrix resumes mid-factorization. *)

open Xsc_linalg
module Task = Xsc_runtime.Task
module Dag = Xsc_runtime.Dag
module Real_exec = Xsc_runtime.Real_exec
module PD = Xsc_tile.Packed.D
module Harness = Xsc_resilience.Harness
module Checkpoint = Xsc_resilience.Checkpoint
module Metrics = Xsc_obs.Metrics
module Span = Xsc_obs.Span

(* ABFT cone replay shows up on the ambient request's span chain (phase
   "replay") so a recovered fault is visible in the exported per-request
   trace, not only as a counter. No-op unless spans are active. *)
let note_replay ~t0 k =
  if Span.active () then
    Span.note ~phase:"replay"
      ~name:(Printf.sprintf "replay(panel %d)" k)
      ~lane:(-1) ~attempt:0 ~start_ns:t0 ~finish_ns:(Xsc_obs.Clock.now_ns ())

let m_detected = Metrics.counter "resilience.ft.detected"
let m_repaired = Metrics.counter "resilience.ft.repaired_tiles"
let m_replayed = Metrics.counter "resilience.ft.replayed_kernels"
let m_restarts = Metrics.counter "resilience.ft.restarts"
let m_ckpts = Metrics.counter "resilience.ft.checkpoints"
let m_resumes = Metrics.counter "resilience.ft.resumes"
let m_faults_detected = Metrics.counter "resilience.faults_detected"

type report = {
  steps : int;
  detected : int;
  repaired_tiles : int;
  replayed_kernels : int;
  restarts : int;
  checkpoints_written : int;
  resumed : bool;
}

type ckpt_policy = { path : string option; every : int }

exception Unrecoverable of int

let () =
  Printexc.register_printer (function
    | Unrecoverable k ->
      Some (Printf.sprintf "Ft.Unrecoverable(panel %d still fails verification after replay)" k)
    | _ -> None)

(* Persisted snapshot: matrix buffer + checksum row + step frontier,
   fingerprinted against the pristine input so a checkpoint can never be
   resumed against a different matrix. *)
type snapshot = {
  ck_n : int;
  ck_nb : int;
  ck_step : int;
  ck_fp : int64;
  ck_buf : Pblas.f64;
  ck_csum : Pblas.f64;
}

let f64_create len =
  Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len

(* The checksum-border construction and per-panel verification are O(n²)
   streaming passes squeezed between O(nb³) kernels; bounds checks double
   their cost, so they use unsafe access like the kernel layer itself.
   The externals must be fully applied at a known element type to compile
   to direct loads — never bind them to a value. *)
module A1 = Bigarray.Array1

(* FNV-1a over the float bit patterns: cheap identity for "same input
   matrix", not a cryptographic claim. *)
let fingerprint (buf : Pblas.f64) =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to Bigarray.Array1.dim buf - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.bits_of_float buf.{i})) 0x100000001b3L
  done;
  !h

(* ---- step-synchronised driver ---- *)

let copy_of (b : Pblas.f64) =
  let c = f64_create (Bigarray.Array1.dim b) in
  Bigarray.Array1.blit b c;
  c

let copy_tile ~tsz src so dst dso =
  Bigarray.Array1.blit (Bigarray.Array1.sub src so tsz) (Bigarray.Array1.sub dst dso tsz)

let tiles_equal ~tsz (a : Pblas.f64) ao (b : Pblas.f64) bo =
  let rec go e =
    e >= tsz
    || (Int64.equal (Int64.bits_of_float a.{ao + e}) (Int64.bits_of_float b.{bo + e})
        && go (e + 1))
  in
  go 0

(* Checksum tile [cb] at [base] against the recomputed sum [s]: max
   absolute mismatch within [tol] of the larger magnitude (at least 1). *)
let within_tol ~tol ~tsz (cb : Pblas.f64) base (s : float array) =
  let err = ref 0.0 and scale = ref 1.0 in
  for e = 0 to tsz - 1 do
    let cv = A1.unsafe_get cb (base + e) and sv = Array.unsafe_get s e in
    let ac = abs_float cv and asv = abs_float sv in
    if ac > !scale then scale := ac;
    if asv > !scale then scale := asv;
    let d = abs_float (cv -. sv) in
    if d > !err then err := d
  done;
  !err <= tol *. !scale

(* Cone replay recomputes one tile at a time into [scratch], then
   [restore]s it over the stored tile when the two differ bitwise. *)
type replay = { tsz : int; scratch : Pblas.f64; mutable repaired : int; mutable replayed : int }

let kernel r f =
  f ();
  r.replayed <- r.replayed + 1;
  Metrics.incr m_replayed

let restore r buf o =
  if not (tiles_equal ~tsz:r.tsz buf o r.scratch 0) then begin
    copy_tile ~tsz:r.tsz r.scratch 0 buf o;
    r.repaired <- r.repaired + 1;
    Metrics.incr m_repaired
  end

(* One sub-DAG of step k: the plain program's half, then the checksum
   tasks that ride it. *)
let step_tasks ~nb plain checksum =
  Runtime_api.program ~nb (fun emit ->
      plain (Runtime_api.emit_op emit);
      checksum emit)

let drive ~exec ~harness ~abft ~checkpoint ~max_restarts ~(p : PD.t) ~interp ~buf0 ~csum
    ~csum0 ~panel ~update ~verify ~replay =
  (match checkpoint with
  | Some { every; _ } when every < 1 -> invalid_arg "Ft: checkpoint every must be >= 1"
  | _ -> ());
  let n = p.PD.n and nb = p.PD.nb and nt = p.PD.nt and buf = p.PD.buf in
  let fp = lazy (fingerprint buf0) in
  let interp = match harness with Some h -> Harness.wrap_packed h p interp | None -> interp in
  let exec_dag tasks = ignore (Runtime_api.execute ~interp exec (Dag.build tasks)) in
  let verify = if abft then verify else fun _ -> true in
  let detected = ref 0 in
  let r = { tsz = nb * nb; scratch = f64_create (nb * nb); repaired = 0; replayed = 0 } in
  let repair k =
    incr detected;
    Metrics.incr m_detected;
    Metrics.incr m_faults_detected;
    let t0 = if Span.active () then Xsc_obs.Clock.now_ns () else 0 in
    replay r k;
    note_replay ~t0 k;
    if not (verify k) then raise (Unrecoverable k)
  in
  (* Until the first checkpoint, rollback restores the pristine copies
     directly (they already exist for replay), so the fault-free fast path
     allocates and copies nothing extra; [fp] is likewise forced only when
     a checkpoint file is read or written. *)
  let snap = ref None in
  let snap_step = ref 0 in
  let save_mem step =
    snap_step := step;
    match !snap with
    | Some ((snap_buf, snap_csum) as s) ->
      Bigarray.Array1.blit buf snap_buf;
      Bigarray.Array1.blit csum snap_csum;
      s
    | None ->
      let s = (copy_of buf, copy_of csum) in
      snap := Some s;
      s
  in
  let rollback () =
    let from_buf, from_csum = match !snap with Some s -> s | None -> (buf0, csum0) in
    Bigarray.Array1.blit from_buf buf;
    Bigarray.Array1.blit from_csum csum
  in
  let resumed = ref false in
  (match checkpoint with
  | Some { path = Some path; _ } -> begin
    match Checkpoint.load_value path with
    | Ok ck
      when ck.ck_n = n && ck.ck_nb = nb
           && Int64.equal ck.ck_fp (Lazy.force fp)
           && Bigarray.Array1.dim ck.ck_csum = Bigarray.Array1.dim csum
           && ck.ck_step >= 0 && ck.ck_step <= nt ->
      Bigarray.Array1.blit ck.ck_buf buf;
      Bigarray.Array1.blit ck.ck_csum csum;
      ignore (save_mem ck.ck_step);
      resumed := true;
      Metrics.incr m_resumes
    | Ok _ | Error _ -> ()  (* missing, torn, or foreign checkpoint: start fresh *)
  end
  | _ -> ());
  let restarts = ref 0 and written = ref 0 in
  let maybe_ckpt step =
    match checkpoint with
    | Some { every; path } when step mod every = 0 && step < nt ->
      let snap_buf, snap_csum = save_mem step in
      (match path with
      | Some path ->
        let ck =
          { ck_n = n; ck_nb = nb; ck_step = step; ck_fp = Lazy.force fp; ck_buf = snap_buf;
            ck_csum = snap_csum }
        in
        ignore (Checkpoint.save_value path ck);
        incr written;
        Metrics.incr m_ckpts
      | None -> ())
    | _ -> ()
  in
  let step = ref !snap_step in
  while !step < nt do
    match
      let k = !step in
      exec_dag (panel k);
      if not (verify k) then repair k;
      match update k with [] -> () | ts -> exec_dag ts
    with
    | () ->
      incr step;
      maybe_ckpt !step
    | exception (Real_exec.Task_failed _ as e) ->
      incr restarts;
      Metrics.incr m_restarts;
      if !restarts > max_restarts then raise e;
      rollback ();
      step := !snap_step
  done;
  (* the job is done; a stale file would otherwise be resumed by the next
     run on the same input *)
  (match checkpoint with
  | Some { path = Some path; _ } when Sys.file_exists path -> Sys.remove path
  | _ -> ());
  {
    steps = nt;
    detected = !detected;
    repaired_tiles = r.repaired;
    replayed_kernels = r.replayed;
    restarts = !restarts;
    checkpoints_written = !written;
    resumed = !resumed;
  }

let potrf_ft ?(exec = Runtime_api.Sequential) ?harness ?(abft = true) ?(tol = 1e-6)
    ?checkpoint ?(max_restarts = 64) (p : PD.t) =
  let nt = p.PD.nt and nb = p.PD.nb in
  let buf = p.PD.buf in
  let off = PD.off p in
  let tsz = nb * nb in
  let buf0 = copy_of buf in
  (* checksum row over the full symmetric matrix, built from the lower
     triangle (the only part the kernels ever read); skipped entirely in
     restart-only mode (abft = false) *)
  let cbuf = f64_create (nt * tsz) in
  Bigarray.Array1.fill cbuf 0.0;
  if abft then
    for j = 0 to nt - 1 do
      let base = j * tsz in
      for bi = 0 to nt - 1 do
        if bi > j then begin
          let o = off bi j in
          for e = 0 to tsz - 1 do
            A1.unsafe_set cbuf (base + e) (A1.unsafe_get cbuf (base + e) +. A1.unsafe_get buf (o + e))
          done
        end
        else if bi = j then begin
          (* symmetrise the stored lower triangle of the diagonal tile *)
          let o = off j j in
          for r = 0 to nb - 1 do
            for c = 0 to r do
              A1.unsafe_set cbuf (base + (r * nb) + c)
                (A1.unsafe_get cbuf (base + (r * nb) + c) +. A1.unsafe_get buf (o + (r * nb) + c))
            done;
            for c = r + 1 to nb - 1 do
              A1.unsafe_set cbuf (base + (r * nb) + c)
                (A1.unsafe_get cbuf (base + (r * nb) + c) +. A1.unsafe_get buf (o + (c * nb) + r))
            done
          done
        end
        else begin
          (* tile (bi, j) of the symmetric matrix with bi < j is the
             transpose of stored tile (j, bi); fixed c gives unit-stride
             reads in r *)
          let o = off j bi in
          for c = 0 to nb - 1 do
            for r = 0 to nb - 1 do
              A1.unsafe_set cbuf (base + (r * nb) + c)
                (A1.unsafe_get cbuf (base + (r * nb) + c) +. A1.unsafe_get buf (o + (c * nb) + r))
            done
          done
        end
      done
    done;
  let c0 = copy_of cbuf in
  let _, trsm_f, _, gemm_f = Cholesky.kernel_flops nb in
  let datum i j = Task.datum i j ~stride:nt in
  let cdatum k = (nt * nt) + k in
  let panel k =
    step_tasks ~nb (Cholesky.panel ~nt ~nb k) (fun emit ->
        if abft then
          emit
            ~run:(fun () -> Pblas.D.trsm_rlt buf (off k k) cbuf (k * tsz) ~nb)
            (Printf.sprintf "csum_trsm(%d)" k)
            trsm_f
            [ Task.Read (datum k k); Task.Read_write (cdatum k) ])
  in
  let update k =
    step_tasks ~nb (Cholesky.update ~nt ~nb k) (fun emit ->
        if abft then
          for j = k + 1 to nt - 1 do
            emit
              ~run:(fun () ->
                Pblas.D.gemm_nt ~alpha:(-1.0) cbuf (k * tsz) buf (off j k) cbuf (j * tsz) ~nb)
              (Printf.sprintf "csum_gemm(%d,%d)" k j)
              gemm_f
              [ Task.Read (datum j k); Task.Read (cdatum k); Task.Read_write (cdatum j) ]
          done)
  in
  let vsum = Array.make tsz 0.0 in
  let verify k =
    Array.fill vsum 0 tsz 0.0;
    for bi = k to nt - 1 do
      let o = off bi k in
      if bi = k then
        for r = 0 to nb - 1 do
          for c = 0 to r do
            let e = (r * nb) + c in
            Array.unsafe_set vsum e (Array.unsafe_get vsum e +. A1.unsafe_get buf (o + e))
          done
        done
      else
        for e = 0 to tsz - 1 do
          Array.unsafe_set vsum e (Array.unsafe_get vsum e +. A1.unsafe_get buf (o + e))
        done
    done;
    within_tol ~tol ~tsz cbuf (k * tsz) vsum
  in
  (* Replay the dependence cone of column k — pristine input tiles plus the
     verified final panels < k, applied in original program order, so every
     recomputed tile is bitwise what a fault-free run produced. Bitwise
     comparison locates the damaged tiles; only those are overwritten. *)
  let replay r k =
    let scratch = r.scratch in
    copy_tile ~tsz buf0 (off k k) scratch 0;
    for k' = 0 to k - 1 do
      kernel r (fun () -> Pblas.D.syrk_ln ~alpha:(-1.0) buf (off k k') ~beta:1.0 scratch 0 ~nb)
    done;
    kernel r (fun () -> Pblas.D.potrf scratch 0 ~nb);
    restore r buf (off k k);
    for i = k + 1 to nt - 1 do
      copy_tile ~tsz buf0 (off i k) scratch 0;
      for k' = 0 to k - 1 do
        kernel r (fun () ->
            Pblas.D.gemm_nt ~alpha:(-1.0) buf (off i k') buf (off k k') scratch 0 ~nb)
      done;
      kernel r (fun () -> Pblas.D.trsm_rlt buf (off k k) scratch 0 ~nb);
      restore r buf (off i k)
    done;
    (* rebuild the checksum tile along the same clean trajectory (its inputs
       C(k') are stationary after their own panel steps) *)
    copy_tile ~tsz c0 (k * tsz) scratch 0;
    for k' = 0 to k - 1 do
      kernel r (fun () ->
          Pblas.D.gemm_nt ~alpha:(-1.0) cbuf (k' * tsz) buf (off k k') scratch 0 ~nb)
    done;
    kernel r (fun () -> Pblas.D.trsm_rlt buf (off k k) scratch 0 ~nb);
    copy_tile ~tsz scratch 0 cbuf (k * tsz)
  in
  drive ~exec ~harness ~abft ~checkpoint ~max_restarts ~p ~interp:(Cholesky.packed_interp p)
    ~buf0 ~csum:cbuf ~csum0:c0 ~panel ~update ~verify ~replay
