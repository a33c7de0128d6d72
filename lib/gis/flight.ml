module FM = Scdb_qe.Fourier_motzkin
module Tel = Scdb_telemetry.Telemetry
module Log = Scdb_log.Log
module Flightrec = Scdb_log.Flightrec
module Trace = Scdb_trace.Trace

type args = {
  vars : string list;
  formula : string;
  n : int;
  seed : int;
  eps : float;
  delta : float;
  method_ : string;
  engine : string;
}

type outcome = {
  points : Vec.t list;
  relation : Relation.t;
  rng : Rng.t;
  plan : Scdb_plan.Plan.t;
}

let ( let* ) = Result.bind

(* The CLI's fixed grid parameter: replay must reproduce it exactly,
   so it lives here rather than in bin/. *)
let gamma = 0.05

let sampler_of_method = function
  | "walk" -> Ok Convex_obs.Hit_and_run
  | "grid" -> Ok Convex_obs.Grid_walk
  | "rejection" -> Ok Convex_obs.Rejection_box
  | m -> Error ("unknown method " ^ m)

let engines = [ "interp"; "vm"; "vm-opt" ]
let check_engine e = if List.mem e engines then Ok e else Error ("unknown engine " ^ e)

let parse_relation ~vars formula =
  if vars = [] then Error "no variables given"
  else begin
    let parsed =
      Trace.span "formula.parse" (fun () ->
          match Parser.parse ~vars formula with
          | f -> Ok f
          | exception Parser.Parse_error m -> Error ("parse error: " ^ m)
          | exception Lexer.Lex_error (m, pos) ->
              Error (Printf.sprintf "lex error at %d: %s" pos m))
    in
    Result.map
      (fun f ->
        let f =
          if Formula.is_quantifier_free f then f
          else Trace.span "qe.eliminate" (fun () -> FM.eliminate f)
        in
        Relation.of_formula ~dim:(List.length vars) f)
      parsed
  end

let run_inner ~track ~progress ~ticker ?overrun_factor ?sink a =
  let* sampler = sampler_of_method a.method_ in
  let* engine = check_engine a.engine in
  let* relation = parse_relation ~vars:a.vars a.formula in
  if track then begin
    Rng.Provenance.reset ();
    Rng.Provenance.set_tracking true
  end;
  let rng = Rng.create a.seed in
  let config = { Convex_obs.practical_config with Convex_obs.sampler } in
  (* Every engine shares the parse, the preprocessing rng draws and the
     plan; vm-opt then draws from the rewritten plan. *)
  let* prog =
    Plan_exec.engine_of_relation ~config ~engine ~gamma ~eps:a.eps ~delta:a.delta
      ~task:(Scdb_plan.Plan.Sample a.n) rng relation
  in
  let plan = Scdb_vm.Vm.plan prog in
  (* The stderr ticker is separate so a contexted job can arm its bus
     for the status view without fighting over the terminal. *)
  if progress then Plan_exec.arm ?overrun_factor plan;
  if ticker then Scdb_progress.Progress.start_ticker ();
  let finish_progress () = if progress then Scdb_progress.Progress.stop () in
  if Log.would_log Log.Info then
    Log.info "sample.run"
      [
        Log.str "formula" a.formula;
        Log.str "method" a.method_;
        Log.str "engine" engine;
        Log.int "n" a.n;
        Log.int "seed" a.seed;
        Log.float "eps" a.eps;
        Log.float "delta" a.delta;
      ];
  (* Points go to the sink as they are drawn; the list is kept only
     for callers that read it afterwards: no sink, or a run that will
     be recorded. *)
  let kept = ref [] in
  let emit =
    match sink with
    | None -> fun x -> kept := x :: !kept
    | Some f when track ->
        fun x ->
          kept := x :: !kept;
          f x
    | Some f -> f
  in
  match Scdb_vm.Vm.sample_iter prog rng ~n:a.n emit with
  | () ->
      finish_progress ();
      if Log.would_log Log.Info then
        Log.info "sample.done" [ Log.int "points" a.n; Log.int "draws" (Rng.draw_count rng) ];
      Ok { points = List.rev !kept; relation; rng; plan }
  | exception Observable.Estimation_failed m ->
      finish_progress ();
      Error m

let run ?ctx ?(track = false) ?(progress = false) ?(ticker = false) ?overrun_factor ?sink a =
  let body () = run_inner ~track ~progress ~ticker ?overrun_factor ?sink a in
  match ctx with
  | None -> body ()
  | Some c -> Scdb_obs.Obs.Ctx.run c body

let to_flightrec a (o : outcome) =
  {
    Flightrec.command = "sample";
    args =
      [
        ("vars", String.concat "," a.vars);
        ("formula", a.formula);
        ("n", string_of_int a.n);
        ("eps", Printf.sprintf "%.17g" a.eps);
        ("delta", Printf.sprintf "%.17g" a.delta);
        ("method", a.method_);
        ("engine", a.engine);
      ];
    seed = a.seed;
    samples = o.points;
    lineage = Rng.Provenance.snapshot ();
    telemetry = (if Tel.enabled () then Some (Tel.dump ~only_nonzero:true ()) else None);
    log_tail = Log.tail ();
  }

let args_of_flightrec (r : Flightrec.t) =
  let* () =
    if r.Flightrec.command = "sample" then Ok ()
    else Error (Printf.sprintf "cannot replay %S records (only \"sample\")" r.Flightrec.command)
  in
  let req k = Option.to_result ~none:("record is missing argument " ^ k) (Flightrec.arg r k) in
  let* vars_s = req "vars" in
  let* formula = req "formula" in
  let* n_s = req "n" in
  let* eps_s = req "eps" in
  let* delta_s = req "delta" in
  let* n = Option.to_result ~none:"malformed n" (int_of_string_opt n_s) in
  let* eps = Option.to_result ~none:"malformed eps" (float_of_string_opt eps_s) in
  let* delta = Option.to_result ~none:"malformed delta" (float_of_string_opt delta_s) in
  let vars =
    String.split_on_char ',' vars_s |> List.map String.trim |> List.filter (( <> ) "")
  in
  let method_ = Option.value ~default:"walk" (Flightrec.arg r "method") in
  let engine = Option.value ~default:"interp" (Flightrec.arg r "engine") in
  Ok { vars; formula; n; seed = r.Flightrec.seed; eps; delta; method_; engine }

let total_draws lineage =
  List.fold_left (fun acc (i : Rng.Provenance.info) -> acc + i.Rng.Provenance.draws) 0 lineage

let replay ?engine (r : Flightrec.t) =
  let* a = args_of_flightrec r in
  let a = match engine with Some e -> { a with engine = e } | None -> a in
  let* o = run ~track:true a in
  ignore o.rng;
  let* n = Flightrec.compare_samples ~recorded:r.Flightrec.samples ~replayed:o.points in
  (* The sample stream is the contract, but the draw totals are a
     cheap second opinion: matching points with different draw counts
     means some non-emitting code path changed. *)
  let recorded = total_draws r.Flightrec.lineage in
  let replayed = total_draws (Rng.Provenance.snapshot ()) in
  if r.Flightrec.lineage <> [] && recorded <> replayed then
    Error
      (Printf.sprintf
         "sample stream matches but total RNG draws differ: recorded %d, replayed %d" recorded
         replayed)
  else Ok n
