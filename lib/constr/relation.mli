(** Generalized relations: finitely representable subsets of [R^d].

    A relation is a dimension together with a finite union of
    generalized tuples (the DNF of its defining quantifier-free
    formula).  This is the object the paper's generators and estimators
    operate on. *)

type t = private { dim : int; tuples : Dnf.tuple list }

val make : dim:int -> Dnf.tuple list -> t
(** @raise Invalid_argument if an atom mentions a variable [>= dim]. *)

val of_formula : dim:int -> Formula.t -> t
(** DNF conversion of a quantifier-free formula.
    @raise Invalid_argument on quantified input. *)

val to_formula : t -> Formula.t
val dim : t -> int
val tuples : t -> Dnf.tuple list

val size : t -> int
(** Description size: total number of atoms. *)

val mem : t -> Rational.t array -> bool
val mem_float : ?slack:float -> t -> Vec.t -> bool
(** Float membership with [slack] (default 0), answering as
    {!Dnf.tuple_holds_float} over the tuples.  [mem_float ~slack r]
    packs every atom's rational coefficients into floats once and
    returns the test: apply it to [r] once and reuse the closure for
    every point. *)

val union : t -> t -> t
(** @raise Invalid_argument on dimension mismatch. *)

val inter : t -> t -> t
(** Tuple-wise product: DNF of the conjunction. *)

val complement_tuple : Dnf.tuple -> t -> t option
(** [complement_tuple t r]: the relation [t ∧ ¬r] in DNF, or [None] if
    empty syntactically. *)

val diff : t -> t -> t
(** [diff r s = r ∧ ¬s], distributed back to DNF. *)

val is_syntactically_empty : t -> bool

(** {1 Common shapes} (axis-aligned; exact rational data) *)

val box : Rational.t array -> Rational.t array -> t
(** [box lo hi] in dimension [Array.length lo]. *)

val unit_cube : int -> t
val cube : int -> Rational.t -> t
(** [cube d r] is [[-r, r]^d]. *)

val standard_simplex : int -> t
(** [{x >= 0, Σx <= 1}]. *)

val cross_polytope : int -> Rational.t -> t
(** [{Σ|xᵢ| <= r}] as the intersection of its [2^d] facets — one
    generalized tuple with [2^d] atoms. *)

val halfspace : dim:int -> Term.t -> t
(** [{x | term <= 0}]. *)


val fingerprint : t -> string
(** Canonical 64-bit fingerprint of the relation, as 16 lowercase hex
    characters.  Computed over the DNF'd exact-rational atoms:
    every atom is rescaled so its leading coefficient has absolute
    value 1 (sign-normalized for equalities), atoms are sorted and
    deduplicated within each tuple, tuples are sorted and deduplicated
    across the relation, and the result is FNV-1a-hashed together with
    the dimension.  Insensitive to atom/tuple order, duplicate
    atoms/tuples, positive rescaling of atoms and the internal bigint
    representation of coefficients; distinct syntax trees of the same
    set may still fingerprint differently (this is canonical hashing,
    not semantic equivalence).  Keys audit ledger entries and, later,
    prepared-relation caches. *)

val to_text : t -> string
(** The relation as parseable FO+LIN text (variables named [x0 …]);
    [Parser.parse_relation ~vars:["x0";…]] inverts it. *)

val pp : Format.formatter -> t -> unit
