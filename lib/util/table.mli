(** ASCII table rendering for benchmark and experiment output.

    The benchmark harness prints every reproduced figure/table as an aligned
    plain-text table so the output diffs cleanly between runs. *)

type align = Left | Right

type t

val create : headers:string list -> t
(** New table with the given column headers. Column count is fixed by the
    header list; rows with a different arity raise [Invalid_argument]. *)

val add_row : t -> string list -> unit

val render : ?align:align -> t -> string
(** Render with a separator line under the header. Numeric-looking cells are
    right-aligned by default ([align] overrides for all non-header cells). *)

val print : ?align:align -> t -> unit
(** [render] followed by [print_string] and a trailing newline. *)
