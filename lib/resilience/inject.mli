(** Fault injection for the resilience experiments: soft errors modelled as
    silent corruption of matrix entries. *)

open Xsc_linalg

val corrupt_entry : Mat.t -> int -> int -> delta:float -> unit
(** Add [delta] to one entry (the canonical silent-error model). *)

val corrupt_lower_entry : Xsc_util.Rng.t -> Mat.t -> magnitude:float -> int * int
(** Corrupt a random entry strictly inside the lower triangle (for factor
    matrices). Requires a matrix of size at least 2. *)

(** {1 Packed tile-major storage}

    The same fault model aimed at {!Xsc_tile.Packed} buffers, so the
    harness reaches the real C-kernel path. Tallies
    [resilience.faults_injected]. *)

val corrupt_packed_entry : Xsc_tile.Packed.D.t -> int -> int -> delta:float -> unit
(** Add [delta] to one entry addressed by global (row, col). *)
