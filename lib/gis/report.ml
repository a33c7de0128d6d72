module Tel = Scdb_telemetry.Telemetry
module Trace = Scdb_trace.Trace
module Polytope = Scdb_polytope.Polytope

module Jo = Scdb_json.Json_out

let schema = "spatialdb-report/6"

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
}

(* An embedded document, re-indented to sit one level deep. *)
let embed doc = String.concat "\n  " (String.split_on_char '\n' (String.trim doc))

let to_json ~chrome ?(span_count = Trace.count ())
    ?(telemetry = Tel.dump ~only_nonzero:true ()) p =
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
  add
    ("  \"diagnostics\": "
    ^ (match p.diagnostics with Some d -> embed (Diag_run.to_json d) | None -> "null")
    ^ ",\n");
  add (Printf.sprintf "  \"span_count\": %d,\n" span_count);
  add ("  \"telemetry\": " ^ embed telemetry ^ ",\n");
  add "  \"trace\": ";
  add chrome;
  add "\n}\n";
  Buffer.contents buf

type format = Json | Trace | Tree

(* Each rendering is built from the run's snapshot on first demand. *)
type run = { json : string Lazy.t; chrome_trace : string Lazy.t; text_tree : string Lazy.t }

let render r = function
  | Json -> Lazy.force r.json
  | Trace -> Lazy.force r.chrome_trace
  | Tree -> Lazy.force r.text_tree

let execute ?(eps = 0.2) ?(delta = 0.1) ?(samples = 10)
    ?(chains = Diag_run.default_chains)
    ?(samples_per_chain = Diag_run.default_samples_per_chain) ?(progress = false)
    ?overrun_factor ?(engine = "interp") ~vars ~formula ~seed () =
  if vars = [] then Error "no variables given"
  else if not (List.mem engine Flight.engines) then
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
      match Flight.parse_relation ~vars formula with
      | Error e -> Error e
      | Ok relation -> (
          let task = Scdb_plan.Plan.Report samples in
          (* The progress bus collects per-node actuals for the
             attribution table; armed only around the planned work
             (diagnostics below are outside the plan and must not
             pollute the root's actuals). *)
          let built =
            match
              Plan_exec.engine_of_relation ~config:Convex_obs.practical_config ~engine
                ~gamma:0.05 ~eps ~delta ~task rng relation
            with
            | Error e -> Error e
            | Ok prog -> (
                let plan = Scdb_vm.Vm.plan prog in
                Plan_exec.arm ?overrun_factor plan;
                if progress then Scdb_progress.Progress.start_ticker ();
                match
                  Trace.span "report.sample" ~attrs:[ ("n", string_of_int samples) ] (fun () ->
                      Scdb_vm.Vm.sample_many prog rng ~n:samples)
                with
                | pts ->
                    let vol =
                      Trace.span "report.volume" (fun () ->
                          let root = Scdb_vm.Vm.observable prog in
                          match Observable.volume root rng ~eps ~delta with
                          | v -> Some v
                          | exception Observable.Estimation_failed _ -> None)
                    in
                    let attribution = Plan_exec.attribution plan in
                    Scdb_progress.Progress.stop ();
                    Ok (plan, attribution, pts, vol)
                | exception Observable.Estimation_failed m ->
                    Scdb_progress.Progress.stop ();
                    Error ("sampling failed: " ^ m))
          in
          match built with
          | Error e -> Error e
          | Ok (plan, attribution, pts, vol) ->
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
                })
    in
    (* Snapshot after the root span closes so every duration is final;
       the renderings read only the snapshot. *)
    let out =
      Result.map
        (fun parts ->
          let spans = Trace.spans () in
          let span_count = List.length spans in
          let telemetry = Tel.dump ~only_nonzero:true () in
          let chrome_trace = lazy (Trace.to_chrome_json ~spans ()) in
          {
            chrome_trace;
            json = lazy (to_json ~chrome:(Lazy.force chrome_trace) ~span_count ~telemetry parts);
            text_tree = lazy (Trace.to_text_tree ~spans ());
          })
        result
    in
    Tel.set_enabled tel_was;
    Trace.set_enabled trace_was;
    out
  end

type t = { json : string; chrome_trace : string }

let generate ?eps ?delta ?samples ?engine ~vars ~formula ~seed () =
  Result.map
    (fun r -> { json = render r Json; chrome_trace = render r Trace })
    (execute ?eps ?delta ?samples ?engine ~vars ~formula ~seed ())
