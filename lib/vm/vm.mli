(** The engine behind [--engine vm|vm-opt]: the plan interpreter
    ({!Plan_obs.observables}) on the plan as built, or on its rewrite
    ({!Plan_obs.rewrite}) under [optimize:true].

    Without [optimize] it draws exactly what the interpreter draws.
    With it, the rejection-box and shared-leaf rewrites keep the
    sampling distribution but not the rng stream. *)

type t

val compile :
  ?optimize:bool ->
  plan:Scdb_plan.Plan.t ->
  pieces:Convex_obs.prepared array ->
  unit ->
  (t, string) result
(** Build the interpreted tree of [plan] (of [Plan_obs.rewrite plan
    pieces] under [optimize:true]) over its prepared convex pieces,
    given in preorder leaf order.  Draws are made at the plan's
    (γ, ε, δ).  [Error] on a task other than [Sample] or [Report], and
    on a plan the interpreter refuses (a piece count mismatch, an
    operator with no interpreter). *)

val plan : t -> Scdb_plan.Plan.t
(** The plan it executes: the rewritten one under [optimize:true].
    Ids and budgets are those of the plan given to {!compile}; the
    rewrite decisions on its nodes are the attribution tags. *)

val observable : t -> Observable.t
(** The interpreted root, for volume estimates. *)

val sample_one : t -> Rng.t -> Vec.t
(** {!Observable.sample_exn} on the root. *)

val sample_iter : t -> Rng.t -> n:int -> (Vec.t -> unit) -> unit
(** {!Observable.sample_iter} on the root. *)

val sample_many : t -> Rng.t -> n:int -> Vec.t list
(** {!Observable.sample_many} on the root. *)
