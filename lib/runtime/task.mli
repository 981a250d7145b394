(** Tasks: the unit of scheduling.

    A task declares the data it touches as access annotations on abstract
    datum identifiers (tile coordinates, vector chunks, ...). The DAG builder
    derives all dependences from these annotations — the "superscalar"
    data-flow model of PLASMA/QUARK/StarPU that replaces fork-join
    synchronisation.

    A task's body is either a [run] closure (arbitrary host code) or a
    closure-free {!op} variant interpreted by the executor: op-encoded DAGs
    allocate one immediate-tagged word per task body instead of a closure
    block capturing tile views, so building and running a large DAG puts no
    pressure on the GC and the steal loop touches no heap. *)

type access =
  | Read of int
  | Write of int
  | Read_write of int  (** accumulation-style update *)

(** Closure-free encoding of the dense-factorization kernels over tile
    coordinates. Executors receive an interpreter [op -> unit] that binds
    the coordinates to actual storage — the same DAG can therefore run over
    strided or packed tiles, traced or untraced, without rebuilding. *)
type op =
  | Potrf of int  (** Cholesky: factor diagonal tile [k] *)
  | Trsm of int * int
      (** [Trsm (k, i)], Cholesky panel: [A(i,k) <- A(i,k) L(k,k)^-T] *)
  | Syrk of int * int
      (** [Syrk (i, k)], Cholesky update: [A(i,i) -= A(i,k) A(i,k)^T] *)
  | Gemm of int * int * int
      (** [Gemm (i, j, k)]: [A(i,j) -= A(i,k) A(j,k)^T] (Cholesky) or
          [A(i,j) -= A(i,k) A(k,j)] (LU) — the interpreter knows which *)
  | Getrf of int  (** LU: factor diagonal tile [k] (no pivoting) *)
  | Trsm_l of int * int
      (** [Trsm_l (k, j)], LU row panel: [A(k,j) <- L(k,k)^-1 A(k,j)] *)
  | Trsm_u of int * int
      (** [Trsm_u (i, k)], LU column panel: [A(i,k) <- A(i,k) U(k,k)^-1] *)

type t = {
  id : int;
  name : string;  (** kernel name, e.g. ["potrf(2,2)"] — used by traces *)
  flops : float;  (** arithmetic weight, drives simulated durations *)
  bytes : float;  (** datum footprint moved if the task runs remotely *)
  accesses : access list;
  run : (unit -> unit) option;
      (** real closure for host execution; [None] for model-only or
          op-encoded DAGs *)
  op : op option;  (** closure-free body, dispatched via an interpreter *)
}

val make :
  id:int -> name:string -> flops:float -> ?bytes:float -> ?run:(unit -> unit) ->
  ?op:op -> access list -> t

val op_name : op -> string
(** Canonical display name (["potrf(2,2)"], ["gemm(3,1,0)"], ...). *)

val reads : t -> int list
(** Data read (including read-write). *)

val writes : t -> int list
(** Data written (including read-write). *)

val datum : int -> int -> stride:int -> int
(** Helper to linearise 2-D tile coordinates into datum ids:
    [datum i j ~stride = i * stride + j]. *)
