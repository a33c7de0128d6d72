(** Self-contained run reports ([spatialdb report]).

    Runs a full query pipeline — parse, normalize, build generators,
    sample, estimate volume, and a multi-chain convergence check
    ({!Scdb_core.Diag_run}) — with tracing and telemetry enabled, and
    packages everything into one JSON document (schema {!schema})
    embedding:

    - the CLI-equivalent arguments (vars, formula, seed, ε, δ, …);
    - the drawn samples and the volume estimate;
    - the cost-model plan ([spatialdb-plan/1], task [Report n]) and the
      predicted-vs-actual cost attribution per plan node (absolute work
      in steps + trials, and the actual/predicted ratio — [null] for
      nodes that never ran);
    - per-chain ESS, split-R̂ per coordinate and a convergence verdict;
    - the telemetry snapshot ([spatialdb-telemetry/3]);
    - the full Chrome trace (loadable in Perfetto as-is).

    Every number goes through {!Scdb_json.Json_out.num}: a non-finite
    value (an infinite R̂, a NaN ratio) is written as [null].

    The progress bus is armed around the planned work (sampling and the
    volume estimate); the diagnostics run outside it so they cannot
    pollute the attribution.  The previous telemetry/trace enabled
    states are restored on exit; the recorded spans and counters
    reflect only this run. *)

val schema : string
(** ["spatialdb-report/5"]. *)

type t = {
  json : string;  (** the {!schema} document *)
  chrome_trace : string;  (** raw Chrome trace-event JSON *)
  text_tree : string;  (** indented text rendering of the spans *)
}

val generate :
  ?eps:float ->
  ?delta:float ->
  ?samples:int ->
  ?chains:int ->
  ?samples_per_chain:int ->
  ?progress:bool ->
  ?overrun_factor:float ->
  ?engine:string ->
  vars:string list ->
  formula:string ->
  seed:int ->
  unit ->
  (t, string) result
(** Defaults: [eps = 0.2], [delta = 0.1], [samples = 10],
    [chains = Diag_run.default_chains],
    [samples_per_chain = Diag_run.default_samples_per_chain].
    [progress] additionally runs the live stderr ticker;
    [overrun_factor] tunes the budget watchdog (default 4).
    [engine] is ["interp"] (default), ["vm"] or ["vm-opt"]; the
    compiled engines run the draws through the instruction profiler
    (timing mode) and embed the [spatialdb-profile/1] document under
    the report's ["profile"] key, with rewrite tags on the
    attribution rows.
    [Error reason] on parse errors or empty/unbounded relations. *)

(** {1 The document} *)

type parts = {
  vars : string list;
  formula : string;
  engine : string;
  seed : int;
  eps : float;
  delta : float;
  chains : int;
  samples_per_chain : int;
  relation : Scdb_constr.Relation.t;
  plan : Scdb_plan.Plan.t;
  attribution : Plan_exec.attribution_row array;
  samples : float array list;
  volume : float option;  (** [None] when estimation failed *)
  diagnostics : Scdb_core.Diag_run.t option;
  profile : string option;  (** the embedded profile document, compiled engines only *)
}
(** What {!generate} computed, before it is written out. *)

val to_json : chrome:string -> parts -> string
(** The {!schema} document {!generate} returns, written straight into
    one buffer, with [chrome] as its trace.  The span count and the
    telemetry snapshot are read from the ambient trace and telemetry
    state. *)
