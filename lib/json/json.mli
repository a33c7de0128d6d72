(** Minimal JSON reader.

    Just enough to round-trip the JSON this repository emits itself
    (telemetry dumps, Chrome traces, run reports) in tests and the
    validator, with no external dependency.  Numbers follow the strict
    RFC 8259 grammar and are read as floats; BMP [\uXXXX] escapes
    decode to UTF-8.  The writer is {!Json_out}: a non-finite float is
    written as [null], so it reads back as {!Null}. *)

exception Parse_error of string

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> t
(** @raise Parse_error on malformed input (with an offset). *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing key or non-object. *)

val to_list : t -> t list option
val to_float : t -> float option
val to_string : t -> string option
val to_bool : t -> bool option
