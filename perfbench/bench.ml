(* End-to-end query benchmark for spatialdb.

   One benchmark process, one client, closed loop: it generates a
   workload's queries from the seed, runs each as a child
   `spatialdb.exe` process (formula in, stdout out), checks every answer
   against exact oracles, and prints one JSON result line.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --workload all --seed N --seconds S   (every workload, summary tables)
     bench.exe --self-test

   --trace 0 reports the end-to-end metrics from the timed CLI pass.
   --trace 1 runs one round of queries as children and again
   in-process, composed from the library's public calls with the
   benchmark's own spans around each layer, and reports the per-layer
   metrics.  See perfbench/README.md. *)

module Clock = Scdb_telemetry.Telemetry.Clock
module Tel = Scdb_telemetry.Telemetry
module W = Workloads

let process_start = Clock.now ()
let bin = "_build/default/bin/spatialdb.exe"
let workdir = ".perfbench"
let errfile = Filename.concat workdir "child.stderr"

(* A run must end within 180 s: no new round starts after this. *)
let hard_cap_s = 140.0
let setup_reps = 5

let die code fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit code) fmt

(* ---------------- answers ---------------- *)

type answer = {
  wall : float;
  points : int;  (** emitted points, 0 on failure *)
  heap_words : int;
  error : string option;
  contract_hit : bool option;  (** report queries: volume within ratio 1+eps *)
  bias_sigma : float;  (** worst operand share deviation, in binomial sigmas *)
}

let first_line s = match String.split_on_char '\n' (String.trim s) with l :: _ -> l | [] -> ""

let check (q : W.query) oracle (r : Cli.result) =
  if not (Cli.exited_ok r) then
    Error (Printf.sprintf "%s: %s" (Cli.describe_status r.status) (first_line r.stderr))
  else
    match oracle with
    | Error e -> Error ("no exact oracle: " ^ e)
    | Ok o -> (
        match q.kind with
        | W.Sample { n; _ } -> Result.map (fun b -> (b, None)) (Checks.check_sample o ~n r.stdout)
        | W.Report { n } ->
            Result.map (fun (b, hit) -> (b, Some hit)) (Checks.check_report o ~n r.stdout))

let answer q oracle r =
  let heap_words = Option.value ~default:0 r.Cli.top_heap_words in
  match check q oracle r with
  | Ok (bias_sigma, contract_hit) ->
      { wall = r.wall; points = W.points q; heap_words; error = None; contract_hit; bias_sigma }
  | Error e ->
      { wall = r.wall; points = 0; heap_words; error = Some e; contract_hit = None; bias_sigma = 0.0 }

let report_failures answers =
  List.iter
    (fun ((q : W.query), a) ->
      match a.error with
      | Some e -> Printf.eprintf "perfbench: FAILED query %d (%s): %s\n%!" q.id q.label e
      | None -> ())
    answers

(* ---------------- set-up ---------------- *)

let warmup_argv = [ "sample"; "-v"; "x,y"; "-f"; "x >= 0 /\\ y >= 0 /\\ x + y <= 1"; "-n"; "1" ]

(* Input generation, exact oracles and a warm-up child, repeated so
   setup_s is a median; the first repetition starts at [start], the
   process start for a single workload. *)
let setup ~start (w : W.workload) seed =
  let once t0 =
    let qs = w.queries seed in
    let oracles = List.map (fun (q : W.query) -> Checks.oracle q.vars q.formula) qs in
    let r = Cli.run ~bin ~errfile warmup_argv in
    if not (Cli.exited_ok r) then die 1 "warm-up query failed: %s" (first_line r.stderr);
    (qs, oracles, Clock.now () -. t0)
  in
  let qs, oracles, first = once start in
  let rest = List.init (setup_reps - 1) (fun _ -> let _, _, t = once (Clock.now ()) in t) in
  (qs, oracles, Stats.median (first :: rest))

(* ---------------- output ---------------- *)

let json_metric (name, value, unit) =
  if not (Float.is_finite value) then die 1 "metric %s has no finite value" name;
  Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name value unit

let print_result ~attempted ~failed metrics =
  List.iter (fun (n, v, u) -> Printf.printf "  %-40s %16.6f %s\n" n v u) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", " (List.map json_metric metrics))

(* ---------------- timed pass (--trace 0) ---------------- *)

let timed ~start (w : W.workload) seed seconds =
  let qs, oracles, setup_s = setup ~start w seed in
  let rounds =
    let rec group acc = function
      | [] -> List.rev acc
      | ((q : W.query), _) :: _ as l ->
          let mine, rest = List.partition (fun ((q' : W.query), _) -> q'.round = q.round) l in
          group (mine :: acc) rest
    in
    Array.of_list (group [] (List.combine qs oracles))
  in
  let t0 = Clock.now () in
  let answers = ref [] and i = ref 0 in
  (* Whole rounds, so every run has the same mix of strata.  Another
     round starts only if the run then ends nearer to [seconds]. *)
  let elapsed () = Clock.now () -. t0 in
  let mean_round () = if !i = 0 then 0.0 else elapsed () /. float_of_int !i in
  while elapsed () +. (mean_round () /. 2.0) < seconds && Clock.now () -. start < hard_cap_s do
    List.iter
      (fun (q, o) ->
        let r = Cli.run ~bin ~errfile (W.argv q) in
        answers := (q, answer q o r) :: !answers)
      rounds.(!i mod Array.length rounds);
    incr i
  done;
  let answers = List.rev !answers in
  report_failures answers;
  let walls = List.map (fun (_, a) -> a.wall) answers in
  let busy = Stats.sum walls in
  let attempted = List.length answers in
  let failed = List.length (List.filter (fun (_, a) -> a.error <> None) answers) in
  let points = float_of_int (List.fold_left (fun acc (_, a) -> acc + a.points) 0 answers) in
  let heap = List.fold_left (fun acc (_, a) -> max acc a.heap_words) 0 answers in
  Printf.printf "workload %s seed %d: %d queries in %d rounds, %.1f s busy, %d failed\n" w.name seed
    attempted !i busy failed;
  List.iter
    (fun label ->
      let mine = List.filter_map (fun ((q : W.query), a) -> if q.label = label then Some a.wall else None) answers in
      Printf.printf "  stratum %-14s median %10.1f ms over %d\n" label (Stats.median mine *. 1e3)
        (List.length mine))
    (List.sort_uniq compare (List.map (fun ((q : W.query), _) -> q.label) answers));
  (match Stats.tail (List.map (fun x -> x *. 1000.0) walls) with
  | Some (p, v, beyond) ->
      Printf.printf "  %-40s %16.6f ms (p%g, %d queries beyond, n=%d)\n" "query_tail_ms" v p beyond
        attempted
  | None -> Printf.printf "  %-40s (fewer than 10 queries beyond p50, n=%d)\n" "query_tail_ms" attempted);
  (match List.filter_map (fun (_, a) -> a.contract_hit) answers with
  | [] -> ()
  | hits ->
      Printf.printf "  %-40s %16.6f frac (%d estimates)\n" "volume_contract_frac"
        (float_of_int (List.length (List.filter Fun.id hits)) /. float_of_int (List.length hits))
        (List.length hits));
  Printf.printf "  %-40s %16.6f frac\n" "failed_frac" (float_of_int failed /. float_of_int attempted);
  (* The pure 5-sigma band assumes exactly uniform points; estimated
     Karp-Luby weights may leave it within the eps contract. *)
  let biased = List.filter (fun (_, a) -> a.bias_sigma > 5.0) answers in
  Printf.printf "  %-40s %d of %d answers, worst %.1f sigma\n" "outside_pure_5sigma_band" (List.length biased)
    attempted
    (List.fold_left (fun acc (_, a) -> Float.max acc a.bias_sigma) 0.0 answers);
  print_result ~attempted ~failed
    [
      ("setup_s", setup_s, "s");
      ("query_p50_ms", Stats.median walls *. 1000.0, "ms");
      ("queries_per_s", float_of_int attempted /. busy, "1/s");
      ("points_per_s", points /. busy, "1/s");
      ("peak_heap_mb", float_of_int heap *. 8.0 /. 1048576.0, "MB");
      ("pass_frac", 1.0 -. (float_of_int failed /. float_of_int attempted), "frac");
    ]

(* ---------------- traced pass (--trace 1) ---------------- *)

type traced = {
  q : W.query;
  child : answer;
  untraced_wall : float;
  inproc : Inproc.outcome;
  report : (float * int) option;  (** Report.generate wall and span count *)
}

let fidelity_abort (q : W.query) what =
  die 3 "fidelity: query %d (%s, seed %d): %s; the in-process pass is not timing the CLI's program"
    q.id q.label q.seed what

let volume_of_json doc =
  match Checks.report_fields doc with Ok (pts, v) -> (pts, v) | Error e -> die 1 "report: %s" e

let trace_one (q : W.query) oracle =
  let r = Cli.run ~bin ~errfile (W.argv q) in
  let child = answer q oracle r in
  (* Each in-process run starts from a compacted heap, so neither pays
     the other's heap growth. *)
  let untraced () =
    Gc.compact ();
    let t = Clock.now () in
    let u = Inproc.run ~qid:q.id q in
    (u, Clock.now () -. t)
  in
  let traced () =
    Gc.compact ();
    Spans.enabled := true;
    Tel.set_enabled true;
    let o = Inproc.run ~qid:q.id q in
    let report =
      match (q.kind, o) with
      | W.Report { n }, Ok _ -> (
          let t = Clock.now () in
          match Inproc.report ~qid:q.id q n with
          | Ok (json, spans) -> Some (json, Clock.now () -. t, spans)
          | Error m -> fidelity_abort q ("Report.generate failed: " ^ m))
      | _ -> None
    in
    Tel.set_enabled false;
    Spans.enabled := false;
    (o, report)
  in
  (* Alternate which pass runs first, so warm-up favours neither side
     of bench.trace_overhead. *)
  let (untraced, untraced_wall), (traced, report) =
    if q.id mod 2 = 0 then
      let u = untraced () in
      (u, traced ())
    else
      let t = traced () in
      (untraced (), t)
  in
  match (traced, untraced) with
  | Error a, Error _ ->
      if Cli.exited_ok r then fidelity_abort q ("CLI succeeded, in-process failed: " ^ a);
      (child, None)
  | Ok _, Error m | Error m, Ok _ -> fidelity_abort q ("traced and untraced runs disagree: " ^ m)
  | Ok o, Ok u -> (
      if not (Cli.exited_ok r) then fidelity_abort q "in-process succeeded, CLI failed";
      if Inproc.render o.points <> Inproc.render u.points then
        fidelity_abort q "traced and untraced streams differ";
      match (q.kind, report) with
      | W.Sample _, _ ->
          if Inproc.render o.points <> r.stdout then fidelity_abort q "point stream differs from the CLI's";
          (child, Some { q; child; untraced_wall; inproc = o; report = None })
      | W.Report _, Some (json, gen_wall, spans) ->
          let cli_pts, cli_vol = volume_of_json r.stdout and gen_pts, gen_vol = volume_of_json json in
          let same v = Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float cli_vol) in
          (match o.volume with
          | Some v when same v && same gen_vol -> ()
          | _ -> fidelity_abort q "volume estimate differs from the CLI's or Report.generate's");
          if cli_pts <> o.points || gen_pts <> o.points then fidelity_abort q "report samples differ";
          (child, Some { q; child; untraced_wall; inproc = o; report = Some (gen_wall, spans) })
      | W.Report _, None -> fidelity_abort q "no report")

let per_layer (w : W.workload) seed =
  let qs, oracles, _ = setup ~start:process_start w seed in
  (* One round: every stratum once. *)
  let qs, oracles =
    List.split (List.filter (fun ((q : W.query), _) -> q.round = 0) (List.combine qs oracles))
  in
  let answers, rows = List.split (List.map2 trace_one qs oracles) in
  let rows = List.filter_map Fun.id rows in
  let spans = Spans.all () in
  (try Unix.mkdir workdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Spans.write (Filename.concat workdir (Printf.sprintf "spans-%s-%d.jsonl" w.name seed)) spans;
  let selfs = Spans.self_times spans in
  let stage qid name =
    List.fold_left
      (fun acc ((s : Spans.t), self) -> if s.query = qid && s.name = name then acc +. self else acc)
      0.0 selfs
  in
  let has qid name = List.exists (fun (s : Spans.t) -> s.query = qid && s.name = name) spans in
  let query_wall qid =
    List.fold_left
      (fun acc (s : Spans.t) -> if s.query = qid && s.name = "query" then Spans.duration s else acc)
      0.0 spans
  in
  let med_over name f =
    match List.filter (fun r -> has r.q.id name) rows with
    | [] -> 0.0
    | rs -> Stats.median (List.map f rs)
  in
  let stage_ms name = med_over name (fun r -> stage r.q.id name *. 1e3) in
  let steady_name r = if has r.q.id "vm.draw" then "vm.draw" else "core.draw" in
  let traced_total = Stats.sum (List.map (fun r -> query_wall r.q.id) rows) in
  (* A stage that not every workload runs is reported as its share of
     the traced query time, so it reads 0 where it does not run. *)
  let share name = Stats.ratio (Stats.sum (List.map (fun r -> stage r.q.id name) rows)) traced_total in
  let total sel i = Stats.sum (List.map (fun r -> (sel r.inproc).(i)) rows) in
  let steady_draws = Stats.sum (List.map (fun r -> float_of_int (W.points r.q - 1)) rows) in
  let nq = float_of_int (List.length rows) in
  let steady = fun (o : Inproc.outcome) -> o.steady and whole = fun (o : Inproc.outcome) -> o.whole in
  let c = Inproc.counter in
  let reports = List.filter_map (fun r -> Option.map (fun x -> (r, x)) r.report) rows in
  (* The stages are the query span's children. *)
  let stage_sum r = query_wall r.q.id -. stage r.q.id "query" in
  let cli_inproc r = match r.report with Some (g, _) -> g | None -> query_wall r.q.id in
  let coverage = Stats.ratio (Stats.sum (List.map stage_sum rows)) traced_total in
  let failed = List.length (List.filter (fun a -> a.error <> None) answers) in
  report_failures (List.combine qs answers);
  Printf.printf "workload %s seed %d: traced %d queries, fidelity OK, stage coverage %.4f (tolerance >= 0.95%s)\n"
    w.name seed (List.length rows) coverage (if coverage >= 0.95 then "" else ", NOT MET");
  List.iter
    (fun name ->
      if List.exists (fun r -> has r.q.id name) rows then
        Printf.printf "  stage %-34s median %12.4f ms per query\n" name (stage_ms name))
    [
      "constr.parse"; "qe.eliminate"; "gis.build"; "vm.compile"; "core.first_draw"; "core.draw"; "vm.draw";
      "sampling.volume"; "diag.run";
    ];
  print_result ~attempted:(List.length qs) ~failed
    [
      ("constr.parse_ms", stage_ms "constr.parse", "ms");
      ("gis.build_ms", stage_ms "gis.build", "ms");
      ("core.first_draw_ms", stage_ms "core.first_draw", "ms");
      ( "draw.steady_us",
        Stats.median
          (List.map
             (fun r -> stage r.q.id (steady_name r) *. 1e6 /. float_of_int (W.points r.q - 1))
             rows),
        "us" );
      ("cli.residual_ms", Stats.median (List.map (fun r -> (r.child.wall -. cli_inproc r) *. 1e3) rows), "ms");
      ( "cli.residual_us_per_point",
        Stats.median
          (List.map (fun r -> (r.child.wall -. cli_inproc r) *. 1e6 /. float_of_int (W.points r.q)) rows),
        "us" );
      ("rng.draws_per_point", Stats.ratio (total steady Inproc.rng_draws) steady_draws, "count");
      ( "sampling.hit_and_run_steps_per_point",
        Stats.ratio (total steady (c "hit_and_run.steps")) steady_draws,
        "count" );
      ( "core.union_accept_ratio",
        Stats.ratio (total steady (c "union.samples")) (total steady (c "union.trials")),
        "ratio" );
      ("core.weight_bias_sigma", Stats.median (List.map (fun r -> r.child.bias_sigma) rows), "sigma");
      ( "sampling.rejection_accept_ratio",
        Stats.ratio (total whole (c "rejection.accepted")) (total whole (c "rejection.attempts")),
        "ratio" );
      ("vm.steps_per_draw", Stats.ratio (total steady (c "vm.steps")) (total steady (c "vm.draws")), "count");
      ("vm.trials_per_draw", Stats.ratio (total steady (c "vm.trials")) (total steady (c "vm.draws")), "count");
      ("gc.minor_words_per_point", Stats.ratio (total steady Inproc.minor_words) steady_draws, "count");
      ( "sampling.prologue_hit_and_run_steps",
        Stats.ratio (total (fun o -> o.Inproc.prologue) (c "hit_and_run.steps")) nq,
        "count" );
      ( "sampling.volume_samples_per_estimate",
        Stats.ratio (total whole (c "volume.samples")) (total whole (c "volume.estimates")),
        "count" );
      ("lp.simplex_pivots_per_query", Stats.ratio (total whole (c "simplex.pivots")) nq, "count");
      ( "trace.spans_per_query",
        (match reports with
        | [] -> 0.0
        | l -> Stats.ratio (Stats.sum (List.map (fun (_, (_, k)) -> float_of_int k) l)) (float_of_int (List.length l))),
        "count" );
      ("core.first_draw_frac", share "core.first_draw", "frac");
      ("qe.eliminate_frac", share "qe.eliminate", "frac");
      ("vm.compile_frac", share "vm.compile", "frac");
      ("sampling.volume_frac", share "sampling.volume", "frac");
      ("diag.run_frac", share "diag.run", "frac");
      ( "gis.report_residual_frac",
        Stats.ratio
          (Stats.sum (List.map (fun (r, (g, _)) -> g -. query_wall r.q.id) reports))
          (Stats.sum (List.map (fun (_, (g, _)) -> g) reports)),
        "frac" );
      ("bench.stage_coverage", coverage, "ratio");
      ( "bench.trace_overhead",
        Stats.ratio traced_total (Stats.sum (List.map (fun r -> r.untraced_wall) rows)),
        "ratio" );
    ]

(* ---------------- entry ---------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let self_test = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload, or all");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S timed-pass length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--self-test", Arg.Set self_test, " run the benchmark's own tests");
    ]
    (fun a -> die 2 "unexpected argument %S" a)
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (Sys.file_exists bin) then die 2 "no spatialdb executable at %s (run perfbench/run.sh)" bin;
  (try Unix.mkdir workdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  if !self_test then exit (Selftest.run ~bin ~errfile)
  else if !workload = "all" then List.iter (fun w -> timed ~start:(Clock.now ()) w !seed !seconds) W.all
  else
    match W.find !workload with
    | None ->
        die 2 "unknown workload %S (expected one of: %s)" !workload
          (String.concat ", " (List.map (fun (w : W.workload) -> w.name) W.all))
    | Some w -> if !trace = 1 then per_layer w !seed else timed ~start:process_start w !seed !seconds
