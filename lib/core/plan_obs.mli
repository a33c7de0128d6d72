(** One plan, one executor: the plan rewrite pass and the one
    plan→observable translation.

    A finalized {!Scdb_plan.Plan.t} over its prepared convex pieces
    (given in preorder leaf order, one per dfk/guard leaf) is all the
    executor needs.  {!observables} turns it into the interpreted
    observable tree.  {!rewrite} is the one place the optimized
    engine's decisions are made, and {!observables} reads them off the
    plan nodes: [--engine vm-opt] is the interpreter on the rewritten
    plan. *)

val rewrite : Scdb_plan.Plan.t -> Convex_obs.prepared array -> Scdb_plan.Plan.t
(** The cost-based rewrite pass.  It marks, on each dfk leaf:
    - [Shared id] when an earlier sibling leaf [id] of the same union
      has an equal original body and sampler configuration — the leaf
      then reuses that leaf's piece and volume estimate (rounding draws
      differ between duplicates, but any rounding of the same body
      yields the same distribution);
    - otherwise [Rejection_box] when the leaf walks by hit-and-run, its
      rounded body has a bounding box, and
      {!Scdb_plan.Cost.rejection_box_trials} is at most its walk
      schedule.
    Structure, ids and costs are unchanged.
    @raise Invalid_argument when the piece count differs from the
    plan's leaf count. *)

val observables : Scdb_plan.Plan.t -> Convex_obs.prepared array -> Observable.t array
(** The interpreted observable of every node, indexed by node id, each
    wrapped so its sample and volume calls run under
    [Progress.with_node id] (rng-free, so stream-preserving).  Dfk and
    guard leaves observe their piece — under the [Rejection_box]
    sampler when so rewritten; a [Shared] leaf reuses the earlier
    leaf's observable, whose volume is cached, so it costs no draws.
    Unions, intersections and differences build {!Union}, {!Inter} and
    {!Diff}.  An exact dfk leaf or union ({!Scdb_plan.Plan.is_exact})
    answers every volume call with the exact volume of its relation —
    the leaf's tuple, or the union's leaf tuples by inclusion–exclusion
    ({!Scdb_polytope.Volume_exact.volume_relation_opt}) — computed once
    on first use (counted by the [volume.exact] telemetry counter) and
    drawing no rng values; an exact union calls no child volume, and
    every sampler is unchanged.
    @raise Invalid_argument on grid, projection and boosting nodes, on
    an exact node whose observable has no relation, or on a piece count
    mismatch. *)
