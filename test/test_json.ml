(* Tests for the JSON layer (Scdb_json): the strict RFC 8259 number
   grammar of the reader, writer round-trip properties, and one
   regression test per emitter that puts NaN and ±inf into its float
   slots and checks the document parses with null there.  The
   structured-log emitter's test sits with the other log tests
   ("non-finite float fields stay valid JSON"). *)

module J = Scdb_json.Json
module Jo = Scdb_json.Json_out
module Tel = Scdb_telemetry.Telemetry
module Trace = Scdb_trace.Trace
module Plan = Scdb_plan.Plan
module Diag_run = Scdb_core.Diag_run

let t name f = Alcotest.test_case name `Quick f

let member path doc =
  List.fold_left
    (fun v k ->
      match J.member k v with Some v -> v | None -> Alcotest.failf "missing field %s" k)
    doc path

let nth i v =
  match J.to_list v with
  | Some l when i < List.length l -> List.nth l i
  | _ -> Alcotest.failf "no element %d" i

let is_null name v = Alcotest.(check bool) (name ^ " is null") true (v = J.Null)

let parse name text =
  match J.parse text with
  | d -> d
  | exception J.Parse_error m -> Alcotest.failf "%s is not valid JSON: %s" name m

(* ---------------- reader: number grammar ---------------- *)

let grammar_tests =
  [
    t "number grammar follows RFC 8259" (fun () ->
        List.iter
          (fun (text, expected) ->
            match (J.parse text, expected) with
            | J.Num v, Some e -> Alcotest.(check (float 0.0)) text e v
            | _, Some _ -> Alcotest.failf "%S did not parse as a number" text
            | _, None -> Alcotest.failf "%S was accepted" text
            | exception J.Parse_error _ ->
                if expected <> None then Alcotest.failf "%S was rejected" text)
          [
            ("0", Some 0.0);
            ("-0", Some (-0.0));
            ("12", Some 12.0);
            ("-3.25", Some (-3.25));
            ("1e3", Some 1000.0);
            ("1E+3", Some 1000.0);
            ("2.5e-1", Some 0.25);
            ("0.5", Some 0.5);
            ("+1", None);
            (".5", None);
            ("1.", None);
            ("01", None);
            ("-01", None);
            ("1e", None);
            ("1e+", None);
            ("-", None);
            ("--1", None);
            ("1.e3", None);
            ("0x10", None);
            ("inf", None);
            ("nan", None);
            ("[1,]", None);
          ]);
  ]

(* ---------------- writer: round trips ---------------- *)

(* Every double: random bit patterns cover NaN payloads, infinities,
   subnormals and both zeros; the listed edge cases are always tried. *)
let float_gen =
  QCheck.Gen.(
    oneof
      [
        map Int64.float_of_bits ui64;
        oneofl
          [
            0.0; -0.0; 4.9e-324; -4.9e-324; 2.2250738585072009e-308; Float.max_float;
            Float.min_float; 1e15; 1e15 -. 1.0; -1e15; 0.1; Float.nan; Float.infinity;
            Float.neg_infinity;
          ];
      ])

let float_arb = QCheck.make ~print:(Printf.sprintf "%h") float_gen

(* Byte strings biased toward what needs escaping: quotes, backslashes,
   control bytes and multi-byte UTF-8. *)
let string_arb =
  let piece =
    QCheck.Gen.(
      oneof
        [
          map (String.make 1) char;
          oneofl [ "\""; "\\"; "\n"; "\t"; "\r"; "\000"; "\031"; "\127"; "é"; "€"; "😀"; "/" ];
        ])
  in
  QCheck.make ~print:String.escaped QCheck.Gen.(map (String.concat "") (list_size (0 -- 12) piece))

let roundtrip_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:2000 ~name:"num: finite floats bit-exact, non-finite null" float_arb
        (fun v ->
          match J.parse (Jo.num v) with
          | J.Num v' -> Float.is_finite v && Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float v')
          | J.Null -> not (Float.is_finite v)
          | _ -> false);
      QCheck.Test.make ~count:1000 ~name:"escape: byte strings round-trip" string_arb (fun s ->
          J.parse ("\"" ^ Jo.escape s ^ "\"") = J.Str s);
      QCheck.Test.make ~count:500 ~name:"to_string: documents round-trip"
        QCheck.(pair (small_list string_arb) (small_list float_arb))
        (fun (keys, vals) ->
          let doc =
            J.Obj
              (List.mapi
                 (fun i k -> (k, J.Arr (List.map (fun v -> J.Num v) vals @ [ J.Num (float i) ])))
                 keys)
          in
          let back = J.parse (Jo.to_string doc) in
          let expect =
            J.Obj
              (List.mapi
                 (fun i k ->
                   ( k,
                     J.Arr
                       (List.map (fun v -> if Float.is_finite v then J.Num v else J.Null) vals
                       @ [ J.Num (float i) ]) ))
                 keys)
          in
          back = expect);
    ]

(* ---------------- emitters: non-finite floats become null ---------------- *)

let diag_doc () =
  let chain =
    {
      Diag_run.ess = [| Float.nan; Float.infinity |];
      mean = [| Float.neg_infinity; 0.5 |];
      kept = 2;
      acceptance_rate = Float.nan;
      max_stall = 0;
    }
  in
  {
    Diag_run.dim = 2;
    chains = [| chain |];
    thin = 1;
    samples_per_chain = 2;
    rhat = [| Float.infinity; Float.nan |];
    verdict = { Scdb_diag.Diag.converged = false; reason = "R\204\130 = inf \"stalled\"" };
  }

let emitter_tests =
  [
    t "Diag_run.to_json writes null for non-finite R-hat, ESS and means" (fun () ->
        let doc = parse "diag" (Diag_run.to_json (diag_doc ())) in
        is_null "rhat[0]" (nth 0 (member [ "rhat" ] doc));
        is_null "rhat[1]" (nth 1 (member [ "rhat" ] doc));
        let chain = nth 0 (member [ "per_chain" ] doc) in
        is_null "ess[0]" (nth 0 (member [ "ess" ] chain));
        is_null "ess[1]" (nth 1 (member [ "ess" ] chain));
        is_null "mean[0]" (nth 0 (member [ "mean" ] chain));
        is_null "acceptance_rate" (member [ "acceptance_rate" ] chain);
        Alcotest.(check (option string)) "reason round-trips"
          (Some "R\204\130 = inf \"stalled\"") (J.to_string (member [ "reason" ] doc)));
    t "Telemetry.dump writes null for non-finite histogram statistics" (fun () ->
        let was = Tel.enabled () in
        Tel.set_enabled true;
        Tel.reset ();
        Fun.protect ~finally:(fun () -> Tel.reset (); Tel.set_enabled was) @@ fun () ->
        let h_nan = Tel.Histogram.make "test.json.nan" in
        let h_inf = Tel.Histogram.make "test.json.inf" in
        Tel.Histogram.observe h_nan Float.nan;
        Tel.Histogram.observe h_inf Float.infinity;
        Tel.Histogram.observe h_inf 1.0;
        let doc = parse "telemetry" (Tel.dump ()) in
        let h name = member [ "histograms"; name ] doc in
        List.iter (fun k -> is_null ("nan " ^ k) (member [ k ] (h "test.json.nan"))) [ "sum"; "mean" ];
        List.iter (fun k -> is_null ("inf " ^ k) (member [ k ] (h "test.json.inf"))) [ "sum"; "max"; "mean" ];
        Alcotest.(check (option (float 0.0))) "finite min kept" (Some 1.0)
          (J.to_float (member [ "min" ] (h "test.json.inf"))));
    t "Telemetry.to_prometheus uses NaN/+Inf/-Inf tokens" (fun () ->
        let was = Tel.enabled () in
        Tel.set_enabled true;
        Tel.reset ();
        Fun.protect ~finally:(fun () -> Tel.reset (); Tel.set_enabled was) @@ fun () ->
        Tel.Histogram.observe (Tel.Histogram.make "test.prom.nan") Float.nan;
        Tel.Histogram.observe (Tel.Histogram.make "test.prom.inf") Float.infinity;
        let prom = Tel.to_prometheus () in
        let value name =
          List.find_map
            (fun l ->
              match String.split_on_char ' ' l with
              | [ n; v ] when n = name -> Some v
              | _ -> None)
            (String.split_on_char '\n' prom)
        in
        (* A NaN-only histogram: a NaN sum, and extremum gauges that
           never moved off their infinite starting values. *)
        Alcotest.(check (option string)) "nan histogram sum" (Some "NaN")
          (value "spatialdb_test_prom_nan_sum");
        Alcotest.(check (option string)) "nan min gauge" (Some "+Inf")
          (value "spatialdb_test_prom_nan_min");
        Alcotest.(check (option string)) "nan max gauge" (Some "-Inf")
          (value "spatialdb_test_prom_nan_max");
        (* The extremum gauges of an infinite observation. *)
        Alcotest.(check (option string)) "inf max gauge" (Some "+Inf")
          (value "spatialdb_test_prom_inf_max");
        Alcotest.(check (option string)) "inf sum" (Some "+Inf") (value "spatialdb_test_prom_inf_sum");
        (* No stand-in numbers for the non-finite values. *)
        List.iter
          (fun l ->
            if l <> "" && l.[0] <> '#' then
              match String.split_on_char ' ' l with
              | [ _; ("NaN" | "+Inf" | "-Inf") ] -> ()
              | [ n; v ] ->
                  if not (Float.is_finite (float_of_string v)) || Float.abs (float_of_string v) >= 1e308
                  then Alcotest.failf "%s carries a stand-in value %s" n v
              | _ -> ())
          (String.split_on_char '\n' prom));
    t "Obs.Status.to_json writes null for non-finite row values" (fun () ->
        let row =
          {
            Scdb_obs.Obs.Status.r_name = "nonfinite";
            r_done = false;
            r_elapsed = Float.nan;
            r_draws = Float.infinity;
            r_rate = Float.neg_infinity;
            r_accepted = 0;
            r_attempts = 0;
            r_acceptance = Some Float.nan;
            r_work = Float.infinity;
            r_budget = 1.0;
            r_burn = Some Float.infinity;
            r_ess = None;
            r_warns = 0;
            r_errors = 0;
            r_spans = 0;
          }
        in
        let doc = parse "status" (Scdb_obs.Obs.Status.to_json ~ts:Float.nan [ row ]) in
        is_null "ts" (member [ "ts" ] doc);
        let c = nth 0 (member [ "contexts" ] doc) in
        List.iter
          (fun k -> is_null k (member [ k ] c))
          [ "elapsed"; "draws"; "draws_per_sec"; "acceptance"; "work"; "budget_burn"; "ess" ]);
    t "Trace.to_chrome_json writes null for non-finite timestamps" (fun () ->
        let view ts dur =
          {
            Trace.v_id = 0;
            v_parent = -1;
            v_depth = 0;
            v_name = "nonfinite";
            v_ts_us = ts;
            v_dur_us = dur;
            v_attrs = [];
          }
        in
        let spans = [ view Float.nan Float.infinity; view Float.neg_infinity 1.5 ] in
        let doc = parse "trace" (Trace.to_chrome_json ~spans ()) in
        let ev i = nth i (member [ "traceEvents" ] doc) in
        is_null "ts[0]" (member [ "ts" ] (ev 0));
        is_null "dur[0]" (member [ "dur" ] (ev 0));
        is_null "ts[1]" (member [ "ts" ] (ev 1));
        Alcotest.(check (option (float 0.0))) "finite dur kept" (Some 1.5)
          (J.to_float (member [ "dur" ] (ev 1))));
    t "Plan.to_json writes null for non-finite parameters and budgets" (fun () ->
        let leaf = Plan.dfk ~eps:0.2 ~delta:0.1 ~dim:2 ~method_:"walk" ~constraints:3 ~volume_budget:2000 () in
        let p = Plan.finalize ~gamma:0.05 ~eps:0.2 ~delta:0.1 ~task:(Plan.Sample 4) leaf in
        let p =
          { p with Plan.gamma = Float.nan; eps = Float.infinity; total_work = Float.neg_infinity;
            budgets = [| Float.infinity |] }
        in
        let doc = parse "plan" (Plan.to_json p) in
        List.iter (fun k -> is_null k (member [ k ] doc)) [ "gamma"; "eps"; "total_work" ];
        is_null "root budget" (member [ "root"; "budget" ] doc));
    t "Plan_exec attribution blocks write null for non-finite numbers" (fun () ->
        let module PE = Scdb_gis.Plan_exec in
        let rows =
          [| { PE.id = 0; op = "dfk"; predicted = Float.infinity; actual = Float.nan;
               ratio = Float.neg_infinity; tags = [ "t\"ag" ] } |]
        in
        let doc = parse "attribution" (PE.attribution_json rows) in
        List.iter (fun k -> is_null k (member [ k ] (nth 0 doc))) [ "predicted"; "actual"; "ratio" ];
        Alcotest.(check (option string)) "tag escaped" (Some "t\"ag")
          (J.to_string (nth 0 (member [ "tags" ] (nth 0 doc))));
        let budget =
          [| { PE.b_id = 0; b_op = "dfk"; b_eps = Float.nan; b_delta = 0.1;
               b_predicted = Float.infinity; b_actual = 2.0; b_ratio = Float.infinity;
               b_delta_achieved = Float.neg_infinity; b_slack = Float.infinity } |]
        in
        let doc = parse "error budget" (PE.budget_attribution_json budget) in
        List.iter
          (fun k -> is_null k (member [ k ] (nth 0 doc)))
          [ "eps"; "predicted"; "ratio"; "delta_achieved"; "slack" ]);
    t "Audit.to_json writes null for non-finite numbers" (fun () ->
        let module A = Scdb_audit.Audit in
        let cov =
          {
            A.runs = 3;
            estimates = [| Float.nan; Float.infinity; 0.5 |];
            hits = 1;
            coverage = 1.0 /. 3.0;
            cp_low = Float.neg_infinity;
            cp_high = Float.infinity;
            confidence = 0.95;
            target = 0.9;
            verdict = A.Inconclusive;
          }
        in
        let a =
          {
            A.fingerprint = "0123456789abcdef";
            oracle = A.Reference;
            truth = Float.infinity;
            truth_exact = None;
            eps = 0.2;
            delta = 0.1;
            gamma = Float.nan;
            cov;
            budget = [||];
          }
        in
        let doc =
          parse "audit" (A.to_json ~vars:[ "x" ] ~formula:"f" ~seed:1 ~jobs:1 ~requested:"auto" a)
        in
        List.iter (fun k -> is_null k (member [ k ] doc)) [ "truth"; "cp_low"; "cp_high" ];
        is_null "args.gamma" (member [ "args"; "gamma" ] doc);
        is_null "estimates[0]" (nth 0 (member [ "estimates" ] doc));
        is_null "estimates[1]" (nth 1 (member [ "estimates" ] doc)));
    t "Report.to_json writes null for non-finite numbers" (fun () ->
        let module R = Scdb_gis.Report in
        let relation =
          Relation.of_formula ~dim:2 (Parser.parse ~vars:[ "x"; "y" ] "x >= 0 /\\ y >= 0")
        in
        let leaf = Plan.dfk ~eps:0.2 ~delta:0.1 ~dim:2 ~method_:"walk" ~constraints:2 ~volume_budget:10 () in
        let parts =
          {
            R.vars = [ "x"; "y" ];
            formula = "x >= 0 /\\ y >= 0";
            engine = "interp";
            seed = 1;
            eps = Float.nan;
            delta = Float.infinity;
            chains = 1;
            samples_per_chain = 2;
            relation;
            plan = Plan.finalize ~gamma:0.05 ~eps:0.2 ~delta:0.1 ~task:(Plan.Report 2) leaf;
            attribution =
              [| { Scdb_gis.Plan_exec.id = 0; op = "dfk"; predicted = 1.0;
                   actual = Float.infinity; ratio = Float.infinity; tags = [] } |];
            samples = [ [| Float.nan; Float.infinity |]; [| Float.neg_infinity; 0.5 |] ];
            volume = Some Float.nan;
            diagnostics = Some (diag_doc ());
            profile = None;
          }
        in
        let doc = parse "report" (R.to_json ~chrome:(Trace.to_chrome_json ~spans:[] ()) parts) in
        is_null "args.eps" (member [ "args"; "eps" ] doc);
        is_null "args.delta" (member [ "args"; "delta" ] doc);
        is_null "volume" (member [ "volume" ] doc);
        let sample i j = nth j (nth i (member [ "samples" ] doc)) in
        is_null "samples[0][0]" (sample 0 0);
        is_null "samples[0][1]" (sample 0 1);
        is_null "samples[1][0]" (sample 1 0);
        is_null "cost_attribution[0].actual" (member [ "actual" ] (nth 0 (member [ "cost_attribution" ] doc)));
        is_null "audit.error_budget[0].ratio"
          (member [ "ratio" ] (nth 0 (member [ "audit"; "error_budget" ] doc)));
        is_null "diagnostics.rhat[0]" (nth 0 (member [ "diagnostics"; "rhat" ] doc)));
  ]

let suites =
  [
    ("json.grammar", grammar_tests);
    ("json.roundtrip", roundtrip_tests);
    ("json.nonfinite", emitter_tests);
  ]
