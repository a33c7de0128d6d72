module Tel = Scdb_telemetry.Telemetry
module Trace = Scdb_trace.Trace
module FM = Scdb_qe.Fourier_motzkin
module Polytope = Scdb_polytope.Polytope

type t = { json : string; chrome_trace : string; text_tree : string }

module Jo = Scdb_json.Json_out

let schema = "spatialdb-report/5"

type parts = {
  vars : string list;
  formula : string;
  engine : string;
  seed : int;
  eps : float;
  delta : float;
  chains : int;
  samples_per_chain : int;
  relation : Relation.t;
  plan : Scdb_plan.Plan.t;
  attribution : Plan_exec.attribution_row array;
  samples : float array list;
  volume : float option;
  diagnostics : Diag_run.t option;
  profile : string option;
}

(* An embedded document, re-indented to sit one level deep. *)
let embed doc = String.concat "\n  " (String.split_on_char '\n' (String.trim doc))

let to_json ~chrome p =
  let buf = Buffer.create 8192 in
  let add = Buffer.add_string buf in
  let str s = "\"" ^ Jo.escape s ^ "\"" in
  add "{\n";
  add (Printf.sprintf "  \"schema\": \"%s\",\n" schema);
  add "  \"args\": {\n";
  add (Printf.sprintf "    \"vars\": [%s],\n" (String.concat ", " (List.map str p.vars)));
  add (Printf.sprintf "    \"formula\": %s,\n" (str p.formula));
  add (Printf.sprintf "    \"engine\": %s,\n" (str p.engine));
  add (Printf.sprintf "    \"seed\": %d,\n" p.seed);
  add (Printf.sprintf "    \"eps\": %s,\n" (Jo.num p.eps));
  add (Printf.sprintf "    \"delta\": %s,\n" (Jo.num p.delta));
  add (Printf.sprintf "    \"samples\": %d,\n" (List.length p.samples));
  add (Printf.sprintf "    \"chains\": %d,\n" p.chains);
  add (Printf.sprintf "    \"samples_per_chain\": %d\n" p.samples_per_chain);
  add "  },\n";
  add (Printf.sprintf "  \"dim\": %d,\n" (List.length p.vars));
  add (Printf.sprintf "  \"tuples\": %d,\n" (List.length (Relation.tuples p.relation)));
  add "  \"samples\": [\n";
  add
    (String.concat ",\n"
       (List.map
          (fun pt -> "    [" ^ String.concat ", " (List.map Jo.num (Array.to_list pt)) ^ "]")
          p.samples));
  add "\n  ],\n";
  add
    (Printf.sprintf "  \"volume\": %s,\n"
       (match p.volume with Some v -> Jo.num v | None -> "null"));
  add ("  \"plan\": " ^ embed (Scdb_plan.Plan.to_json p.plan) ^ ",\n");
  add ("  \"cost_attribution\": " ^ Plan_exec.attribution_json p.attribution ^ ",\n");
  (* The accuracy twin of cost_attribution: the (ε,δ) grants each node
     received, the δ its spent work actually bought, and the remaining
     slack — keyed by the relation's canonical fingerprint (the future
     cache key). *)
  add "  \"audit\": {\n";
  add (Printf.sprintf "    \"fingerprint\": \"%s\",\n" (Relation.fingerprint p.relation));
  add "    \"error_budget\": ";
  add
    (Plan_exec.budget_attribution_json (Plan_exec.budget_attribution p.plan p.attribution));
  add "\n  },\n";
  let block = function Some doc -> embed doc | None -> "null" in
  add ("  \"diagnostics\": " ^ block (Option.map Diag_run.to_json p.diagnostics) ^ ",\n");
  add ("  \"profile\": " ^ block p.profile ^ ",\n");
  add (Printf.sprintf "  \"span_count\": %d,\n" (Trace.count ()));
  add ("  \"telemetry\": " ^ embed (Tel.dump ~only_nonzero:true ()) ^ ",\n");
  add "  \"trace\": ";
  add chrome;
  add "\n}\n";
  Buffer.contents buf

let generate ?(eps = 0.2) ?(delta = 0.1) ?(samples = 10)
    ?(chains = Diag_run.default_chains)
    ?(samples_per_chain = Diag_run.default_samples_per_chain) ?(progress = false)
    ?overrun_factor ?(engine = "interp") ~vars ~formula ~seed () =
  if vars = [] then Error "no variables given"
  else if not (List.mem engine [ "interp"; "vm"; "vm-opt" ]) then
    Error ("unknown engine " ^ engine)
  else begin
    let tel_was = Tel.enabled () and trace_was = Trace.enabled () in
    Tel.set_enabled true;
    Tel.reset ();
    Trace.set_enabled true;
    Trace.reset ();
    let dim = List.length vars in
    let rng = Rng.create seed in
    let result =
      Trace.span "report"
        ~attrs:[ ("seed", string_of_int seed); ("dim", string_of_int dim) ]
      @@ fun () ->
      let parsed =
        Trace.span "formula.parse" (fun () ->
            match Parser.parse ~vars formula with
            | f -> Ok f
            | exception Parser.Parse_error m -> Error ("parse error: " ^ m)
            | exception Lexer.Lex_error (m, pos) ->
                Error (Printf.sprintf "lex error at %d: %s" pos m))
      in
      match parsed with
      | Error e -> Error e
      | Ok f -> (
          let f =
            if Formula.is_quantifier_free f then f
            else Trace.span "qe.eliminate" (fun () -> FM.eliminate f)
          in
          let relation = Relation.of_formula ~dim f in
          let task = Scdb_plan.Plan.Report samples in
          let built =
            (* The progress bus collects per-node actuals for the
               attribution table; armed only around the planned work
               (diagnostics below are outside the plan and must not
               pollute the root's actuals). *)
            match engine with
            | "interp" -> (
                match
                  Plan_exec.observable_of_relation ~config:Convex_obs.practical_config
                    ~gamma:0.05 ~eps ~delta ~task rng relation
                with
                | None -> Error "relation is empty, unbounded or lower-dimensional"
                | Some (plan, obs) ->
                    Plan_exec.arm ?overrun_factor plan;
                    if progress then Scdb_progress.Progress.start_ticker ();
                    let params = Params.make ~gamma:0.05 ~eps ~delta () in
                    let pts =
                      Trace.span "report.sample" ~attrs:[ ("n", string_of_int samples) ]
                        (fun () -> Observable.sample_many obs rng params ~n:samples)
                    in
                    let vol =
                      Trace.span "report.volume" (fun () ->
                          match Observable.volume obs rng ~eps ~delta with
                          | v -> Some v
                          | exception Observable.Estimation_failed _ -> None)
                    in
                    let attribution = Plan_exec.attribution plan in
                    Scdb_progress.Progress.stop ();
                    Ok (plan, attribution, pts, vol, None))
            | _ -> (
                (* Compiled engines: draws run through the instruction
                   profiler (timing mode — a report is a diagnostic
                   document), volume through the program's interpreted
                   mirror, and the attribution rows carry the
                   compiler's rewrite tags. *)
                let optimize = engine = "vm-opt" in
                match
                  Plan_exec.compiled_of_relation ~config:Convex_obs.practical_config
                    ~optimize ~gamma:0.05 ~eps ~delta ~task rng relation
                with
                | None -> Error "relation is empty, unbounded or lower-dimensional"
                | Some (_, Error m) -> Error ("plan does not compile: " ^ m)
                | Some (plan, Ok prog) -> (
                    Plan_exec.arm ?overrun_factor plan;
                    if progress then Scdb_progress.Progress.start_ticker ();
                    let profile =
                      Scdb_profile.Profile.create ~mode:Scdb_profile.Profile.Timing prog
                    in
                    match
                      Trace.span "report.sample" ~attrs:[ ("n", string_of_int samples) ]
                        (fun () -> Scdb_profile.Profile.sample_many profile rng ~n:samples)
                    with
                    | pts ->
                        let vol =
                          Trace.span "report.volume" (fun () ->
                              match
                                Observable.volume (Scdb_vm.Vm.mirror prog) rng ~eps ~delta
                              with
                              | v -> Some v
                              | exception Observable.Estimation_failed _ -> None)
                        in
                        let attribution = Plan_exec.attribution ~program:prog plan in
                        Scdb_progress.Progress.stop ();
                        Ok
                          ( plan,
                            attribution,
                            pts,
                            vol,
                            Some (Scdb_profile.Profile.to_json ~plan profile) )
                    | exception Observable.Estimation_failed m ->
                        Scdb_progress.Progress.stop ();
                        Error ("sampling failed: " ^ m)))
          in
          match built with
          | Error e -> Error e
          | Ok (plan, attribution, pts, vol, profile_json) ->
              let diag =
                match Relation.tuples relation with
                | tuple :: _ ->
                    Diag_run.run ~chains ~samples_per_chain rng
                      (Polytope.of_tuple ~dim tuple)
                | [] -> None
              in
              Ok
                {
                  vars;
                  formula;
                  engine;
                  seed;
                  eps;
                  delta;
                  chains;
                  samples_per_chain;
                  relation;
                  plan;
                  attribution;
                  samples = pts;
                  volume = vol;
                  diagnostics = diag;
                  profile = profile_json;
                })
    in
    (* Export after the root span closes so every duration is final. *)
    let out =
      Result.map
        (fun parts ->
          let chrome = Trace.to_chrome_json () in
          let json = to_json ~chrome parts in
          { json; chrome_trace = chrome; text_tree = Trace.to_text_tree () })
        result
    in
    Tel.set_enabled tel_was;
    Trace.set_enabled trace_was;
    out
  end
