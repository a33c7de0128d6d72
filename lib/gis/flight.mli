(** Flight-recorded sampling runs: one code path for the CLI, the
    recorder and the replayer.

    {!Scdb_log.Flightrec} owns the record {e format}; this module owns
    its {e semantics} — it can see the parser, the evaluator and the
    observable pipeline, so it is the layer that turns a record back
    into an execution.  [spatialdb sample] runs through {!run} whether
    or not a record is being captured, which is what makes replay
    meaningful: the recorded stream and the replayed stream come from
    literally the same code. *)

type args = {
  vars : string list;  (** free variables, fixing dimension and coordinate order *)
  formula : string;  (** FO+LIN source text *)
  n : int;  (** points to draw *)
  seed : int;
  eps : float;
  delta : float;
  method_ : string;  (** ["walk"], ["grid"] or ["rejection"] *)
  engine : string;
      (** ["interp"] or ["vm"] (the plan interpreter, one and the same
          stream) or ["vm-opt"] (the interpreter on the rewritten plan;
          same distribution, different stream) *)
}

val engines : string list
(** The execution engines, in the order the CLI lists them:
    [["interp"; "vm"; "vm-opt"]]. *)

val parse_relation : vars:string list -> string -> (Relation.t, string) result
(** Parse FO+LIN source over [vars] and eliminate its quantifiers
    (Fourier–Motzkin) — inside [formula.parse] and [qe.eliminate]
    trace spans.  [Error] on no variables, a parse or a lex error. *)

val gamma : float
(** The CLI's fixed grid parameter (0.05): replay and the cost model
    must reproduce it exactly, so it lives here rather than in bin/. *)

type outcome = {
  points : Vec.t list;
      (** the sample stream, in order, when it was retained: always
          without a [sink], with a [sink] only under [~track:true]
          (otherwise [[]]) *)
  relation : Relation.t;  (** the parsed (and quantifier-eliminated) relation *)
  rng : Rng.t;  (** the root generator, post-run (for follow-on work like [--diag]) *)
  plan : Scdb_plan.Plan.t;
      (** the cost-model plan the run was budgeted against and executed
          (task [Sample n]; rewritten under ["vm-opt"]); with
          [~progress:true] its predicted-vs-actual attribution, rewrite
          tags included, is readable via {!Plan_exec.attribution} after
          the run *)
}

val run :
  ?ctx:Scdb_obs.Obs.Ctx.t ->
  ?track:bool ->
  ?progress:bool ->
  ?ticker:bool ->
  ?overrun_factor:float ->
  ?sink:(Vec.t -> unit) ->
  args ->
  (outcome, string) result
(** Parse, build the plan-tagged observable, draw [n] points.  With
    [~ctx] the whole run executes with that observability context
    installed ({!Scdb_obs.Obs.Ctx.run}), so every metric, span, event,
    accrual and lineage node lands in the context's stores instead of
    the process globals.  With [~track:true] the RNG provenance
    registry is reset and enabled first, so the lineage tree in
    {!to_flightrec} is complete and its ids are reproducible.  With
    [~progress:true] the (ambient) progress bus is armed with the
    plan's budgets ([overrun_factor] tunes the watchdog);
    [~ticker:true] additionally runs the stderr progress ticker for
    the duration — kept separate so concurrent contexted jobs can arm
    their buses for the status view without fighting over the
    terminal.  None of these options perturb the RNG
    stream, so replay is unaffected.  Emits [sample.run] /
    [sample.done] info events.

    Each point goes to [sink] the moment it is drawn, so a caller can
    stream [n] points in constant memory.  The point list in the
    outcome is kept only when something reads it later: when no
    [sink] is given (replay, in-process callers) or under
    [~track:true] (the run is to be recorded, and {!to_flightrec}
    needs the stream).  If a draw fails partway ([Error] from
    {!Observable.Estimation_failed}), the sink has already seen the
    points drawn before it. *)

val to_flightrec : args -> outcome -> Scdb_log.Flightrec.t
(** Snapshot a finished run as a [spatialdb-flightrec/1] record
    (current provenance registry, telemetry dump if collection is on,
    and the log ring tail). *)

val args_of_flightrec : Scdb_log.Flightrec.t -> (args, string) result
(** Recover the run arguments from a record.  Fails on records written
    by a different subcommand or with missing/malformed arguments. *)

val replay : ?engine:string -> Scdb_log.Flightrec.t -> (int, string) result
(** Re-execute a record with provenance tracking and compare the
    replayed stream bit-for-bit against the recorded one
    ({!Scdb_log.Flightrec.compare_samples}), then cross-check total
    RNG draw counts against the recorded lineage.  [Ok n] returns the
    verified stream length; any divergence reports the first differing
    sample, coordinate and both values.  [engine] overrides the
    record's engine: ["interp"] and ["vm"] records replay under
    either name. *)
