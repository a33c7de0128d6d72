(* End-to-end tests for the spatialdb-report generator on the paper's
   Figure 1 triangle. *)

module Report = Scdb_gis.Report
module J = Scdb_json.Json

let ts name f = Alcotest.test_case name `Slow f
let t name f = Alcotest.test_case name `Quick f

let fig1 = "x >= 0 /\\ y >= 0 /\\ x + y <= 1"

let get name = function
  | Some v -> v
  | None -> Alcotest.failf "missing field %s" name

let report_tests =
  [
    ts "figure 1 report is schema-valid with converging diagnostics" (fun () ->
        match Report.generate ~vars:[ "x"; "y" ] ~formula:fig1 ~seed:42 () with
        | Error e -> Alcotest.failf "generate failed: %s" e
        | Ok r ->
            let doc = J.parse r.Report.json in
            Alcotest.(check (option string)) "schema" (Some Report.schema)
              (J.to_string (get "schema" (J.member "schema" doc)));
            (* The embedded plan is a valid plan document
               budgeted for the report task. *)
            let plan = get "plan" (J.member "plan" doc) in
            Alcotest.(check (option string)) "plan schema" (Some Scdb_plan.Plan.schema)
              (J.to_string (get "plan.schema" (J.member "schema" plan)));
            Alcotest.(check (option string)) "plan task" (Some "report")
              (J.to_string (get "plan.task" (J.member "task" plan)));
            (match Scdb_plan.Plan.of_json plan with
            | Ok p ->
                Alcotest.(check bool) "plan total_work positive" true
                  (p.Scdb_plan.Plan.total_work > 0.0)
            | Error e -> Alcotest.failf "embedded plan does not round-trip: %s" e);
            (* Every executed node has a finite, positive actual/predicted
               ratio. *)
            let rows =
              Option.get (J.to_list (get "cost_attribution" (J.member "cost_attribution" doc)))
            in
            Alcotest.(check bool) "attribution rows present" true (rows <> []);
            List.iter
              (fun row ->
                let actual =
                  Option.get (J.to_float (get "actual" (J.member "actual" row)))
                in
                let ratio = J.member "ratio" row in
                if actual > 0.0 then begin
                  match Option.bind ratio J.to_float with
                  | Some r ->
                      Alcotest.(check bool) "ratio finite and positive" true
                        (Float.is_finite r && r > 0.0)
                  | None -> Alcotest.fail "executed node has no finite ratio"
                end)
              rows;
            (* Arguments echo back. *)
            let args = get "args" (J.member "args" doc) in
            Alcotest.(check (option (float 0.0))) "seed" (Some 42.0)
              (J.to_float (get "seed" (J.member "seed" args)));
            Alcotest.(check (option string)) "formula" (Some fig1)
              (J.to_string (get "formula" (J.member "formula" args)));
            (* Deep trace: at least 10 nested spans. *)
            let span_count =
              Option.get (J.to_float (get "span_count" (J.member "span_count" doc)))
            in
            Alcotest.(check bool) "span_count >= 10" true (span_count >= 10.0);
            let events =
              Option.get
                (J.to_list (get "traceEvents" (J.member "traceEvents" (get "trace" (J.member "trace" doc)))))
            in
            Alcotest.(check int) "trace matches span_count" (int_of_float span_count)
              (List.length events);
            (* Telemetry snapshot rides along. *)
            Alcotest.(check (option string)) "telemetry schema"
              (Some Scdb_telemetry.Telemetry.schema)
              (J.to_string
                 (get "telemetry.schema"
                    (J.member "schema" (get "telemetry" (J.member "telemetry" doc)))));
            (* Diagnostics: m >= 4 chains, per-coordinate R-hat < 1.1. *)
            let diag = get "diagnostics" (J.member "diagnostics" doc) in
            let chains =
              Option.get (J.to_float (get "chains" (J.member "chains" diag)))
            in
            Alcotest.(check bool) "chains >= 4" true (chains >= 4.0);
            let rhat = Option.get (J.to_list (get "rhat" (J.member "rhat" diag))) in
            Alcotest.(check int) "rhat per coordinate" 2 (List.length rhat);
            List.iter
              (fun v ->
                let x = Option.get (J.to_float v) in
                Alcotest.(check bool) "R-hat < 1.1" true (Float.is_finite x && x < 1.1))
              rhat;
            (* The triangle's volume is 1/2; eps = 0.2 at delta = 0.1. *)
            let vol = Option.get (J.to_float (get "volume" (J.member "volume" doc))) in
            Alcotest.(check bool) "volume near 0.5" true (vol > 0.35 && vol < 0.65);
            (* The separate Chrome trace parses on its own. *)
            let tdoc = J.parse r.Report.chrome_trace in
            Alcotest.(check bool) "chrome trace parses" true
              (J.member "traceEvents" tdoc <> None));
    ts "report generation is deterministic given the seed" (fun () ->
        let volume_of r =
          let doc = J.parse r.Report.json in
          Option.get (J.to_float (get "volume" (J.member "volume" doc)))
        in
        match
          ( Report.generate ~vars:[ "x"; "y" ] ~formula:fig1 ~seed:7 ~samples:4 (),
            Report.generate ~vars:[ "x"; "y" ] ~formula:fig1 ~seed:7 ~samples:4 () )
        with
        | Ok a, Ok b ->
            Alcotest.(check (float 0.0)) "same volume" (volume_of a) (volume_of b)
        | _ -> Alcotest.fail "generate failed");
    ts "whole report JSON is identical modulo clock fields" (fun () ->
        (* Strip everything wall-clock dependent — span timestamps and
           durations, plus timer histograms (named *.seconds), whose
           bucket placement depends on measured durations — and require
           the rest of the two documents to be structurally equal. *)
        let rec strip v =
          match v with
          | J.Obj kvs ->
              J.Obj
                (List.filter_map
                   (fun (k, v) ->
                     if k = "ts" || k = "dur" then None
                     else
                       match (k, v) with
                       | "histograms", J.Obj hs ->
                           Some
                             ( k,
                               J.Obj
                                 (List.filter
                                    (fun (n, _) ->
                                      not (String.ends_with ~suffix:".seconds" n))
                                    hs) )
                       | _ -> Some (k, strip v))
                   kvs)
          | J.Arr l -> J.Arr (List.map strip l)
          | x -> x
        in
        match
          ( Report.generate ~vars:[ "x"; "y" ] ~formula:fig1 ~seed:11 ~samples:4 (),
            Report.generate ~vars:[ "x"; "y" ] ~formula:fig1 ~seed:11 ~samples:4 () )
        with
        | Ok a, Ok b ->
            let da = strip (J.parse a.Report.json) and db = strip (J.parse b.Report.json) in
            Alcotest.(check bool) "structurally equal" true (da = db)
        | _ -> Alcotest.fail "generate failed");
    t "parse errors surface as Error" (fun () ->
        match Report.generate ~vars:[ "x" ] ~formula:"x >=" ~seed:1 () with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected a parse error");
    t "report restores the global enabled flags" (fun () ->
        let tel = Scdb_telemetry.Telemetry.enabled () in
        let trace = Scdb_trace.Trace.enabled () in
        ignore (Report.generate ~vars:[ "x" ] ~formula:"x >=" ~seed:1 ());
        Alcotest.(check bool) "telemetry restored" tel (Scdb_telemetry.Telemetry.enabled ());
        Alcotest.(check bool) "trace restored" trace (Scdb_trace.Trace.enabled ()));
  ]

let suites = [ ("gis.report", report_tests) ]
