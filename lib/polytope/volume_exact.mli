(** Exact volume of bounded polyhedra and generalized relations.

    Lasserre's recursion over exact rationals: the d-volume of
    [{A x <= b}] is [1/d · Σᵢ bᵢ/|a_{i,k}| · vol(facet i)] once facet
    [i] is parametrized by solving its hyperplane for coordinate [k]
    (the Euclidean norms cancel, keeping everything rational).

    Exponential in the dimension and polynomial for fixed dimension —
    exactly the role the Bieri–Nef sweep-plane algorithm plays in the
    paper's Lemma 3.1.  Serves as ground truth for every estimator
    test and experiment. *)

exception Unbounded

val volume_system : dim:int -> Rational.t array array -> Rational.t array -> Rational.t
(** Exact volume of [{x ∈ R^dim | A x <= b}].
    @raise Unbounded if the polyhedron is unbounded. *)

val volume_tuple : dim:int -> Dnf.tuple -> Rational.t
(** Volume of the convex set of one generalized tuple. *)

val default_max_tuples : int
(** [16]; {!Scdb_plan.Cost.max_exact_tuples} keeps a copy. *)

val volume_relation : ?max_tuples:int -> Relation.t -> Rational.t
(** Volume of a finite union of tuples, by inclusion–exclusion over the
    (possibly overlapping) tuples.  Every superset of an intersection of
    volume zero is skipped (its intersection lies inside a null set), so
    a disjoint or touching union costs its [t] tuple volumes plus the
    pairwise checks; the worst case is [2^t − 1] exact volume calls, and
    [max_tuples] (default {!default_max_tuples}) guards that blowup.
    @raise Invalid_argument if the relation has more tuples than that.
    @raise Unbounded if some non-empty intersection is unbounded. *)

val volume_relation_opt : ?max_tuples:int -> Relation.t -> Rational.t option
(** {!volume_relation}, or [None] when the relation is unbounded or has
    more than [max_tuples] tuples: the one exact-volume entry point of
    runtime, audit, aggregates and [spatialdb volume --mode exact]. *)

val float_volume_relation : ?max_tuples:int -> Relation.t -> float
