(** Plan-tagged execution: the bridge from static plans to the
    progress bus and the predicted-vs-actual attribution table.

    Builds the same observable tree as {!Eval.observable_of_relation}
    while constructing the matching {!Scdb_plan.Plan.t}, and wraps
    every observable so its sample/volume calls run inside
    [Progress.with_node] with the plan-node id — the accrued actuals
    land on exactly the node whose budget predicted them.  The wrapper
    is transparent to the RNG stream, so flight-recorder replay is
    unaffected. *)

val tag : int -> Observable.t -> Observable.t
(** Wrap sample/volume in [Progress.with_node id]. *)

val observable_of_relation :
  ?config:Convex_obs.config ->
  gamma:float ->
  eps:float ->
  delta:float ->
  task:Scdb_plan.Plan.task ->
  Rng.t ->
  Relation.t ->
  (Scdb_plan.Plan.t * Observable.t) option
(** Build plan and tagged observable together, from the tuples that
    actually yielded observables — plan ids and runtime attribution
    agree by construction. *)

val compiled_of_relation :
  ?config:Convex_obs.config ->
  ?optimize:bool ->
  gamma:float ->
  eps:float ->
  delta:float ->
  task:Scdb_plan.Plan.task ->
  Rng.t ->
  Relation.t ->
  (Scdb_plan.Plan.t * (Scdb_vm.Vm.t, string) result) option
(** The compiled-engine twin of {!observable_of_relation}: identical
    per-tuple preprocessing rng draws and identical plan, but the
    prepared pieces are lowered through {!Scdb_vm.Vm.compile} (strict
    mirror by default; [optimize:true] enables the stream-changing
    cost-based rewrites).  [None] under the same emptiness conditions;
    [Some (plan, Error _)] when the plan has a shape the compiler
    refuses. *)

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

val attribution : ?program:Scdb_vm.Vm.t -> Scdb_plan.Plan.t -> attribution_row array
(** Join the plan's budgets with the progress bus's accrued actuals,
    in node-id order.  Call after the run, before the next
    [Progress.start].  When the run executed a compiled [program], its
    symbolization table supplies each node's rewrite tags
    ([rejection_box_substituted], [shared_union_leaf],
    [reordered_membership]) so attribution rows carry provenance. *)

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
          never ran *)
  b_slack : float;  (** [b_delta − b_delta_achieved]; negative = overdrawn *)
}
(** One node of the error-budget attribution: the (ε,δ) sub-contract
    the plan granted ({!Scdb_plan.Plan.error_budget}) joined with the
    work the node actually spent.  Guards carry [nan] throughout. *)

val budget_attribution : Scdb_plan.Plan.t -> attribution_row array -> budget_row array
(** Join grants with runtime actuals, in node-id order — the audit
    block of [spatialdb report] and the [error_budget] section of
    [spatialdb audit] documents. *)

val budget_attribution_json : budget_row array -> string
(** JSON array (two-space indented block); non-finite fields render
    as [null]. *)

val budget_attribution_text : budget_row array -> string
(** Fixed-width table for terminals. *)
