(** Tall-Skinny QR (Demmel et al.).

    A tall [m x n] matrix split in [p] row blocks: each block is factored
    locally, then the small [n x n] R factors are combined pairwise up a
    reduction tree. The whole factorization costs [log2 p] messages on the
    critical path versus [Theta(n log p)] for Householder QR — the canonical
    communication-avoiding win. The arithmetic is executed for real and the
    R factor is verified against the sequential QR. *)

open Xsc_linalg

type tree = Binary | Flat

type result = {
  r : Mat.t;  (** the [n x n] triangular factor, diagonal made positive *)
  messages_critical_path : int;  (** messages on the critical path *)
  messages_total : int;
  words_total : float;
  reduction_depth : int;
}

val factor : ?tree:tree -> blocks:Mat.t array -> unit -> result
(** Blocks must share a column count [n] and each have at least [n] rows.
    [Binary] (default) is the CA tree; [Flat] is the sequential-combining
    ablation. *)

val factor_mat : ?tree:tree -> p:int -> Mat.t -> result
(** Convenience: split an [m x n] matrix ([p] divides [m], [m/p >= n]) into
    row blocks and factor. *)

val q_of : Mat.t -> r:Mat.t -> Mat.t
(** Recover the thin explicit Q as [A R⁻¹] (valid for well-conditioned
    full-rank [A]). Kept as the test oracle for the TSQR [R] that FIG-5
    reports: tests check [QᵀQ = I] and [QR = A]. *)

val householder_messages : p:int -> n:int -> int
(** Critical-path message count model of distributed column-by-column
    Householder QR ([2 n log2 p] — one reduction + one broadcast per
    column). *)
