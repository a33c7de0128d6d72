(** JSON writer: the one encoding every spatialdb document uses.

    Non-finite rule: NaN, [+inf] and [-inf] are written as [null].
    JSON has no token for them, and a stand-in number ([0], [1e308])
    would pass for a real measurement; [null] reads back as
    {!Json.Null} and fails any check that wants a number.  Finite
    floats are written so that they read back bit-exactly (see {!num}).

    Emitters write straight into their own [Buffer]s with {!num} and
    {!escape}; {!to_string} re-serializes a parsed {!Json.t}. *)

val escape : string -> string
(** The body of a JSON string literal, without the surrounding quotes:
    double quotes, backslashes and control bytes are escaped, every
    other byte (UTF-8 included) passes through. *)

val num : float -> string
(** [null] for NaN and ±inf.  A finite integral value below [1e15] in
    magnitude prints with one decimal ([3.0], [-0.0]); anything else
    prints with [%.17g], which round-trips every double (subnormals
    included). *)

val to_string : Json.t -> string
(** Compact one-line rendering, numbers through {!num}. *)
