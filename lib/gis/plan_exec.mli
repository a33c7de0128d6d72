(** Plan-tagged execution: the bridge from static plans to the
    executor, the progress bus and the predicted-vs-actual attribution
    table.

    Every engine starts from {!Plan_build.of_relation} and runs
    {!Scdb_core.Plan_obs.observables} over the plan, or over its
    rewrite under [vm-opt].  Every node's sample/volume calls run inside
    [Progress.with_node] with the plan-node id, so the accrued actuals
    land on exactly the node whose budget predicted them.  The wrapper
    is transparent to the RNG stream, so flight-recorder replay is
    unaffected. *)

val observable_of_relation :
  ?config:Convex_obs.config ->
  ?exact_when_cheap:bool ->
  gamma:float ->
  eps:float ->
  delta:float ->
  task:Scdb_plan.Plan.task ->
  Rng.t ->
  Relation.t ->
  (Scdb_plan.Plan.t * Observable.t) option
(** {!Plan_build.of_relation} (exact leaf and union volumes when cheap
    unless [exact_when_cheap] is [false]), then the interpreted root of
    {!Scdb_core.Plan_obs.observables}. *)

val engine_of_relation :
  ?config:Convex_obs.config ->
  engine:string ->
  gamma:float ->
  eps:float ->
  delta:float ->
  task:Scdb_plan.Plan.task ->
  Rng.t ->
  Relation.t ->
  (Scdb_vm.Vm.t, string) result
(** {!Plan_build.of_relation}, then {!Scdb_vm.Vm.compile} under
    [engine]: ["vm-opt"] executes the rewritten plan, ["interp"] and
    ["vm"] the plan as built.  [Error] when the relation is empty,
    unbounded or lower-dimensional, or the plan is refused. *)

val arm : ?overrun_factor:float -> Scdb_plan.Plan.t -> unit
(** [Progress.start] with the plan's budget rows. *)

type attribution_row = {
  id : int;
  op : string;
  predicted : float;
  actual : float;
  ratio : float;  (** [actual/predicted]; [nan] when the node never ran *)
  tags : string list;  (** rewrite provenance under the optimized engine *)
}

val attribution : Scdb_plan.Plan.t -> attribution_row array
(** Join the plan's budgets with the progress bus's accrued actuals,
    in node-id order.  Call after the run, before the next
    [Progress.start].  Pass the executed plan ({!Scdb_vm.Vm.plan}):
    each row carries its node's rewrite tag
    ({!Scdb_plan.Plan.rewrite_tag}), and a union whose leaves share
    weights carries [shared_union_leaf]. *)

val attribution_json : attribution_row array -> string
(** JSON array (two-space indented block); every non-finite number is
    [null], so is the ratio of a node that never ran. *)

val attribution_text : attribution_row array -> string
(** Fixed-width table for terminals. *)

type budget_row = {
  b_id : int;
  b_op : string;
  b_eps : float;  (** granted ε of the node's own estimation phase *)
  b_delta : float;  (** granted δ *)
  b_predicted : float;  (** predicted work (steps + trials) *)
  b_actual : float;  (** accrued work *)
  b_ratio : float;  (** [actual/predicted]; [nan] when the node never ran *)
  b_delta_achieved : float;
      (** the δ the node's spent work actually buys at its granted ε,
          via {!Scdb_plan.Cost.delta_at_work_ratio}; [nan] when it
          never ran; [0] for an exact leaf or union, whose volume
          cannot fail *)
  b_slack : float;  (** [b_delta − b_delta_achieved]; negative = overdrawn *)
}
(** One node of the error-budget attribution: the (ε,δ) sub-contract
    the plan granted ({!Scdb_plan.Plan.error_budget}) joined with the
    work the node actually spent.  Guards carry [nan] throughout. *)

val budget_attribution : Scdb_plan.Plan.t -> attribution_row array -> budget_row array
(** Join grants with runtime actuals, in node-id order — the audit
    block of [spatialdb report] and the [error_budget] section of
    [spatialdb audit] documents.  An exact leaf or union keeps its whole grant
    as slack; the grant itself is unchanged. *)

val budget_attribution_json : budget_row array -> string
(** JSON array (two-space indented block); non-finite fields render
    as [null]. *)

val budget_attribution_text : budget_row array -> string
(** Fixed-width table for terminals. *)
