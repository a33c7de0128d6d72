(** Fixed-dimension observability (Theorem 3.1, Lemmas 3.1–3.2).

    When the dimension is a constant, {e every} generalized relation —
    convex or not, connected or not — is observable by brute force:
    decompose the bounding box into γ-cubes, enumerate the cubes inside
    the relation, and both the count (volume) and a uniform cube choice
    (generator) follow.  The [(R/γ)^d] cost is polynomial for fixed [d]
    and the subject of experiment E8's crossover against the
    random-walk pipeline. *)

val observable : ?max_cells:int -> Relation.t -> Observable.t option
(** [None] when the relation is (syntactically or geometrically) empty
    or unbounded.  Decompositions are cached per γ.  The generator uses
    γ from its {!Params.t}; the volume estimator uses γ = ε (their
    roles coincide here: resolution is the only error source).
    [max_cells] (default [2_000_000]) bounds each decomposition;
    exceeding it raises [Invalid_argument] — that blowup in growing
    dimension is the point of Section 3's fixed-dimension hypothesis. *)

val exact_volume : Relation.t -> Rational.t option
(** The exact polynomial-time fixed-dimension volume (Lemma 3.1's role,
    implemented by the Lasserre recursion + inclusion–exclusion):
    {!Scdb_polytope.Volume_exact.volume_relation_opt}, [None] on
    unbounded input or past its tuple guard. *)
