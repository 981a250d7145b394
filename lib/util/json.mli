(** Minimal JSON: the one printer every record and trace goes through
    (bench and [xsc] records, metrics snapshots, SLO reports, Chrome
    traces), and a strict recursive-descent parser for validating what we
    emit, without an external dependency.

    Numbers are parsed as [float]; strings must be valid JSON strings
    (the [\uXXXX] escapes we never emit above the ASCII range decode only
    for code points < 128, others become ['?']). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val int : int -> t
(** [Num] of an integer; exact below 2^53. *)

val to_string : t -> string
(** Compact one-line JSON. Finite numbers round-trip exactly
    ([parse (to_string v) = v]); NaN and infinities print as [null]. *)

val parse : string -> t
(** Raises [Failure] with a position message on malformed input, including
    trailing garbage after the first value. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val escape : string -> string
(** Escape a string for embedding between double quotes in JSON output
    (quotes, backslashes, control characters). {!to_string} escapes with
    it; [benchmark/]'s own record printer uses it directly. *)
