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
(** ["spatialdb-report/6"]. *)

type run
(** A finished report run: what it computed, plus a snapshot of the
    spans and telemetry it recorded. *)

type format =
  | Json  (** the {!schema} document *)
  | Trace  (** raw Chrome trace-event JSON *)
  | Tree  (** indented text rendering of the spans *)

val execute :
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
  (run, string) result
(** Defaults: [eps = 0.2], [delta = 0.1], [samples = 10],
    [chains = Diag_run.default_chains],
    [samples_per_chain = Diag_run.default_samples_per_chain].
    [progress] additionally runs the live stderr ticker;
    [overrun_factor] tunes the budget watchdog (default 4).
    [engine] is ["interp"] (default), ["vm"] or ["vm-opt"]; under
    ["vm-opt"] sample and volume run on the rewritten plan, and the
    attribution rows carry its rewrite tags.
    [Error reason] on parse errors or empty/unbounded relations. *)

val render : run -> format -> string
(** One rendering of the run, built from its snapshot on first demand
    and kept: a run that is printed as one format never pays for the
    others (the JSON document embeds the Chrome trace). *)

type t = { json : string; chrome_trace : string }

val generate :
  ?eps:float ->
  ?delta:float ->
  ?samples:int ->
  ?engine:string ->
  vars:string list ->
  formula:string ->
  seed:int ->
  unit ->
  (t, string) result
(** {!execute} with the default chains, no ticker and the default
    watchdog, then {!render} its [Json] and [Trace] formats. *)

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
}
(** What {!generate} computed, before it is written out. *)

val to_json : chrome:string -> ?span_count:int -> ?telemetry:string -> parts -> string
(** The {!schema} document of a run, written straight into one buffer,
    with [chrome] as its trace.  [span_count] and the [telemetry]
    snapshot default to the ambient trace and telemetry state. *)
