(** Cost model of distributed solve classes on a simulated machine.

    A request class is a distributed Cholesky (2-D block-cyclic) or SUMMA
    multiplication of size [n] over a square grid of [ranks] nodes. Step
    counts and per-rank communication volumes come from the closed forms
    the real {!Xsc_ca} virtual-grid executions validate
    ({!Xsc_ca.Dist_cholesky.model_2d}, {!Xsc_ca.Summa.model_2d}); message
    and word costs are priced by the machine's alpha-beta
    {!Xsc_simmachine.Network} exactly as
    {!Xsc_ca.Pgrid.time_of_counter} prices measured traffic; compute time
    is the class flops over the allocation at a derated node rate. *)

type kind =
  | Chol  (** 2-D block-cyclic Cholesky, [n/nb] sequential panel steps *)
  | Gemm  (** SUMMA, [sqrt ranks] panel-broadcast steps *)
  | Cg of { iters : int }
      (** row-partitioned classic CG on a 7-point stencil of [n] rows,
          [iters] sequential iteration steps. Bandwidth-bound: costed by
          streamed bytes over {!Xsc_simmachine.Node.t.mem_bandwidth} plus
          two allreduces per iteration
          ({!Xsc_sparse.Cg.modeled_iteration_time}) — node flop rate never
          enters. Solver state is three vectors, so checkpoints are O(n)
          and Young's interval stretches to many steps: the HPL-vs-HPCG
          contrast as a fleet economics statement. *)

type cls = {
  name : string;  (** batching class key *)
  kind : kind;
  n : int;  (** global problem size: matrix order, or rows for [Cg] *)
  nb : int;  (** panel width (must divide [n]); ignored by [Cg] *)
  ranks : int;  (** nodes one solve occupies; a square for [Chol]/[Gemm],
                    any positive count for the row-partitioned [Cg] *)
  deadline_s : float;  (** relative deadline granted at admission *)
  weight : float;  (** workload mix weight *)
}

type costs = {
  steps : int;  (** sequential panel steps of one member *)
  step_s : float;  (** failure-free time of one step (compute + comm) *)
  work_s : float;  (** [steps * step_s]: failure-free service time *)
  setup_s : float;  (** once per batch: scatter onto the grid *)
  checkpoint_s : float;  (** C: write the allocation's state *)
  restart_s : float;  (** R: replace the rank and reload the checkpoint *)
  abft_step_factor : float;  (** step multiplier when checksums are kept *)
  abft_repair_s : float;  (** recover one corrupted tile from checksums *)
  cone_replay_s : float;  (** replay the corrupted step's dependence cone *)
}

val validate : cls -> unit
(** Raises [Invalid_argument] on malformed classes (nb not dividing n or
    non-square ranks for the dense kinds, non-positive rows/iters/ranks
    for [Cg], non-positive deadline/weight). *)

val flops_of : cls -> float

val costs : machine:Xsc_simmachine.Machine.t -> cls -> costs

val young_steps : machine:Xsc_simmachine.Machine.t -> cls -> costs:costs -> int
(** Young's optimal interval [sqrt (2 C M)] against the allocation's own
    failure process, converted to a checkpoint-every-k-steps cadence
    (floored at 1). *)
