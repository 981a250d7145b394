(** Solve requests and their typed outcomes.

    A request is one independent problem — the unit the serving layer
    admits, batches, schedules and isolates faults around. Dense payloads
    (compute-bound) reuse the library's strided kernels; sparse payloads
    (bandwidth-bound CG/multigrid over stencil operators) carry their own
    tolerance and iteration budget. The solution types own fresh storage,
    so a caller's inputs are never mutated by the service. *)

open Xsc_linalg

type payload =
  | Spd_solve of Mat.t * Vec.t  (** [x] with [A x = b], [A] SPD (Cholesky) *)
  | Lu_solve of Mat.t * Vec.t  (** [x] with [A x = b] (partial-pivoting LU) *)
  | Gemm of Mat.t * Mat.t  (** the product [A B] *)
  | Cg_solve of { a : Xsc_sparse.Csr.t; b : Vec.t; tol : float; max_iter : int }
      (** sparse SPD iterative solve (classic CG) — bandwidth-bound; a solve
          that fails to reach [tol] within [max_iter] iterations is a TYPED
          failure ({!Failed}), never a silently wrong answer *)
  | Mg_solve of { grid : int; levels : int; b : Vec.t; tol : float; max_cycles : int }
      (** stationary V-cycle multigrid on the [grid³] 27-point stencil
          operator ({!Xsc_sparse.Stencil.hpcg_27pt}; [grid] must be even,
          for coarsening) — same non-convergence contract as [Cg_solve] *)

type solution =
  | Vector of Vec.t
  | Matrix of Mat.t

type reject_reason =
  | Queue_full  (** admission window full — backpressure engaged *)
  | Shutting_down

type error =
  | Rejected of reject_reason
      (** refused at admission; the request was never queued *)
  | Failed of { attempts : int; error : string }
      (** the kernel failed on every attempt (e.g. a singular matrix, or a
          permanent injected fault); [error] is the final exception *)

type t = {
  id : int;  (** server-assigned, unique per server *)
  payload : payload;
  submit_ns : int;  (** monotonic admission timestamp *)
  deadline_ns : int;  (** absolute monotonic deadline (EDF key) *)
  span : Xsc_obs.Span.ctx;
      (** root of the request's causal span tree, minted at admission;
          every wait/attempt/task/replay segment parents onto it *)
}

val validate : payload -> unit
(** Raises [Invalid_argument] on dimension mismatches (checked at submit,
    so a malformed request can never reach a worker). *)

val kind_name : payload -> string
val size : payload -> int

val class_key : payload -> string
(** Batching-compatibility class ([spd:64], [lu:48], …): only requests of
    one class coalesce into a batch — same kernel, same size, so no member
    stalls behind a much larger sibling. *)

val error_message : error -> string

type completion = {
  request : t;
  outcome : (solution, error) result;
  retries : int;  (** re-executions after transient injected faults *)
  queue_wait_s : float;  (** admission to batch dispatch *)
  service_s : float;  (** dispatch to completion (includes retries) *)
  total_s : float;
  met_deadline : bool;
}
