(** Static query plans with paper-derived cost estimates.

    A plan is a tree mirroring the {!Scdb_core.Observable} combinator
    algebra — convex/DFK leaves, fixed-dimension grid leaves, union,
    intersection, difference, projection, confidence boosting and
    membership-only guards — where every node carries an {e a-priori}
    cost estimate (predicted rng draws, membership tests, walk steps
    and rejection trials) computed from the (γ,ε,δ) parameters with the
    formulas of {!Cost}.  Nothing is sampled to build a plan: it is the
    EXPLAIN side of the pipeline, and the budgets it prescribes are the
    ones the progress bus and the overrun watchdog hold the execution
    to.

    The comparable work metric is [steps + trials] — exactly the units
    the instrumented samplers report at run time — while draws and
    membership tests ride along for inspection.  Serializes to the
    versioned [spatialdb-plan/1] JSON schema (with a reader for tests
    and validators) and to an indented text tree. *)

type units = { draws : float; mems : float; steps : float; trials : float }

val work : units -> float
(** [steps + trials]: the portion of the estimate the runtime can
    observe cheaply (walk steps and rejection/acceptance trials), and
    therefore the unit predicted budgets and actuals are compared in. *)

val zero : units
val add_units : units -> units -> units
val scale_units : float -> units -> units

(** Operator of a plan node, carrying the paper-prescribed budgets the
    node was costed with. *)
type op =
  | Dfk of {
      method_ : string;
      walk_steps : int;
      phases : int;
      samples_per_phase : int;
      constraints : int;
      exact : bool;
    }
      (** Convex leaf: DFK lattice walk / hit-and-run / rejection-box
          generator, plus either the multi-phase volume estimator
          ([exact = false]) or the exact Lasserre volume of its tuple
          ([exact = true]: no walk steps, no draws, no failure
          probability). *)
  | Grid_leaf of { cells : float }
      (** Fixed-dimension γ-grid decomposition (Theorem 3.1). *)
  | Union_op of { trials : int; volume_trials : int; exact : bool }
      (** Karp–Luby union (Theorem 4.1): the generator always, and
          either the acceptance-loop volume estimate ([exact = false])
          or the exact inclusion–exclusion volume of its leaves' tuples
          ([exact = true]: no trials, no draws, no failure
          probability). *)
  | Inter_op of { poly_degree : int; budget : int; volume_trials : int }
      (** Rejection intersection (Proposition 4.1). *)
  | Diff_op of { poly_degree : int; budget : int; volume_trials : int }
      (** Guarded difference (Corollary 4.3). *)
  | Project_op of { keep : int; trials : int; pilot : int; volume_trials : int }
      (** Fiber-compensated projection (Theorem 4.3 / Algorithm 2). *)
  | Boost_op of { runs : int }  (** median confidence boosting *)
  | Guard  (** membership-only subtrahend: never sampled, never measured *)

(** How a node is executed, as decided by the rewrite pass
    ({!Scdb_core.Plan_obs.rewrite}).  Rewrites keep the sampling
    distribution but change the rng stream; costs stay those of the
    node as built. *)
type rewrite =
  | Kept  (** executed as costed *)
  | Rejection_box
      (** a hit-and-run leaf sampled by exact bounding-box rejection,
          because {!Cost.rejection_box_trials} undercuts its walk *)
  | Shared of int
      (** a union leaf equal to the earlier leaf with this id: it
          reuses that leaf's piece and volume estimate *)

type node = {
  id : int;  (** preorder index, assigned by {!finalize}; [-1] before *)
  op : op;
  dim : int;
  per_sample : units;  (** inclusive expected cost of one generator call *)
  per_volume : units;  (** inclusive expected cost of one volume estimation *)
  children : node list;
  rewrite : rewrite;  (** [Kept] from every constructor and {!of_json} *)
}

val rewrite_tag : rewrite -> string option
(** Provenance tag of a rewrite: ["rejection_box_substituted"] or
    ["shared_union_leaf"]; [None] for [Kept]. *)

val is_exact : node -> bool
(** A dfk leaf or a union whose volume is computed exactly. *)

val op_name : op -> string
(** ["dfk"], ["grid"], ["union"], ["inter"], ["diff"], ["project"],
    ["boost"], ["guard"]. *)

(** What the plan is budgeted for. *)
type task =
  | Sample of int  (** draw [n] points *)
  | Volume  (** one volume estimation *)
  | Report of int  (** [n] points and one volume estimation *)

(** {1 Node constructors}

    Each constructor computes the node's inclusive cost estimate from
    its children and the {!Cost} formulas.  The caller passes the
    {e sub-call} accuracy parameters the runtime would use (e.g. a
    union's children are built at [ε/3], per Algorithm 1), mirroring
    how the combinators thread [Params.third_eps] down. *)

val dfk :
  eps:float ->
  delta:float ->
  dim:int ->
  ?method_:string ->
  ?constraints:int ->
  ?volume_budget:int ->
  ?exact_when_cheap:bool ->
  unit ->
  node
(** [method_] is ["walk"] (hit-and-run, default), ["grid"] (lattice
    walk) or ["rejection"] (bounding-box rejection).  [constraints] is
    the description size of the tuple (membership-oracle cost;
    informational).  [volume_budget] fixes the per-phase sample count
    (the CLI's practical budget); omitted, the rigorous
    {!Cost.volume_samples_per_phase} sizing applies.  With
    [exact_when_cheap] (default [false]) the leaf's volume is exact
    when {!Cost.exact_volume_pays} finds the Lasserre recursion over
    [constraints] no dearer than the [phases × samples_per_phase ×
    walk_steps] DFK estimate; an exact leaf's [per_volume] is zero. *)

val grid_leaf : dim:int -> cells:float -> node

val union_ : ?exact_when_cheap:bool -> eps:float -> delta:float -> node list -> node
(** With [exact_when_cheap] (default [false]) the union's volume is
    exact when every child is a dfk leaf and
    {!Cost.exact_union_pays} finds inclusion–exclusion over the
    leaves' constraint counts no dearer than the acceptance loop's
    [volume_trials] child generator calls; an exact union's
    [per_volume] is zero, and a volume task then calls no child.
    @raise Invalid_argument on an empty list. *)

val inter_ : ?poly_degree:int -> eps:float -> delta:float -> node list -> node
val diff_ : ?poly_degree:int -> eps:float -> delta:float -> node -> node -> node
val project_ : eps:float -> delta:float -> keep:int -> node -> node
val boost_ : delta:float -> node -> node
val guard : dim:int -> node

(** {1 Finalized plans} *)

type t = {
  gamma : float;
  eps : float;
  delta : float;
  task : task;
  root : node;  (** ids assigned in preorder, root = 0 *)
  node_count : int;
  budgets : float array;
      (** per-node {e inclusive} predicted work (in {!work} units) for
          executing [task] once, indexed by node id *)
  total_work : float;  (** [budgets.(0)] *)
}

val finalize : gamma:float -> eps:float -> delta:float -> task:task -> node -> t
(** Assign preorder ids and compute the per-run budget of every node:
    the expected number of work units (walk steps + trials) the subtree
    rooted there spends executing [task], including the one-time child
    volume estimates a union/intersection performs before its first
    draw. *)

val budget_rows : t -> (int * string * float) array
(** [(id, op_name, predicted_work)] per node, in id order — the feed
    for the progress bus. *)

val iter_nodes : (node -> unit) -> t -> unit
(** Preorder traversal. *)

val find_node : t -> int -> node option

type budget_grant = { g_id : int; g_op : string; g_eps : float; g_delta : float }
(** The (ε,δ) sub-contract granted to one plan node on the volume
    path.  [nan] for membership-only guards. *)

val error_budget : t -> budget_grant array
(** Per-node granted accuracy budgets, in id order: the plan's (ε,δ)
    recursively split exactly the way the runtime combinators thread
    their parameters — a union's children are granted (ε/3, δ/4m) and
    its own acceptance phase (ε/3, δ/4) per Algorithm 1, intersections
    and differences halve ε with δ/4m / δ/4, projections split both by
    3, boosting runs children at fixed confidence 3/4.  The audit layer
    joins these grants with the runtime attribution actuals to report
    consumed-vs-granted slack per node. *)

(** {1 Serialization} *)

val schema : string
(** ["spatialdb-plan/1"]. *)

val to_json : t -> string
(** The {!schema} document: parameters, task, total work and the node
    tree with per-node estimates, attributes and budgets; a dfk node
    carries its ["method"], and a dfk or union node its ["volume"]
    ("exact" or "sampled", read as "sampled" when absent).  A non-finite
    number is written as [null] ({!Scdb_json.Json_out}). *)

val of_json : Scdb_json.Json.t -> (t, string) result
(** Reader for the same schema (validators and round-trip tests). *)

val to_text_tree : t -> string
(** Indented human-readable rendering. *)
