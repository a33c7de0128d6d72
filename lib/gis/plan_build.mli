(** Query plans for GIS relations.

    Every generalized tuple that survives well-rounding becomes a DFK
    leaf (costed for the configured sampler and volume budget, its
    volume exact when {!Scdb_plan.Cost.exact_volume_pays}), and
    multi-tuple relations get a Karp–Luby union root (its volume exact
    when {!Scdb_plan.Cost.exact_union_pays}) whose children are costed
    at the sub-call parameters the runtime threads down (ε/3,
    δ/(4m)).  Nothing is sampled: the rounding preprocessing is the
    only rng consumer. *)

val leaf_node :
  ?config:Convex_obs.config ->
  ?exact_when_cheap:bool ->
  eps:float ->
  delta:float ->
  dim:int ->
  Scdb_constr.Dnf.tuple ->
  Scdb_plan.Plan.node
(** Unchecked DFK leaf for one tuple (the executor calls this for
    tuples it has already built an observable for).  Default config is
    {!Convex_obs.practical_config}.  [exact_when_cheap] (default
    [true]) lets the cost model make the leaf's volume exact
    ({!Scdb_plan.Plan.dfk}); [false] keeps the DFK estimate, whose
    budget the audit's fault injection corrupts. *)

val of_relation :
  ?config:Convex_obs.config ->
  ?exact_when_cheap:bool ->
  gamma:float ->
  eps:float ->
  delta:float ->
  task:Scdb_plan.Plan.task ->
  Rng.t ->
  Relation.t ->
  (Scdb_plan.Plan.t * Convex_obs.prepared array) option
(** The one relation→plan translation: every generalized tuple is rounded
    ({!Convex_obs.prepare_relation}, the rng-consuming half of
    generator construction), each tuple that yields a piece becomes a
    {!leaf_node}, two or more leaves go under a {!Scdb_plan.Plan.union_}
    root, and the tree is finalized for [task].  Returns the plan with
    its pieces in preorder leaf order — what {!Scdb_core.Plan_obs} and
    {!Scdb_vm.Vm.compile} consume — so plan ids and runtime attribution
    agree by construction.  [exact_when_cheap] (default [true]) is
    passed to every leaf and to the union, so the cost model may make
    any of their volumes exact.  [None] when no tuple yields a piece
    (empty, unbounded or lower-dimensional). *)
