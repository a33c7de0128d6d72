(* End-to-end exit-code tests for the spatialdb binary.

   The convention under test (see bin/spatialdb.ml): 2 for usage/value
   errors with the valid choices listed, 1 for runtime errors (parse
   failures, empty relations), cmdliner's 124 for malformed command
   lines, 0 on success.  The binary is a declared dune dependency of
   the test runner, sitting at ../bin/spatialdb.exe relative to it. *)

let t name f = Alcotest.test_case name `Quick f

let binary =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "spatialdb.exe")

let run args = Sys.command (Filename.quote binary ^ " " ^ args ^ " >/dev/null 2>&1")

let fig1 = "-v x,y -f \"x >= 0 /\\ y >= 0 /\\ x + y <= 1\""

let fig1_union =
  "(x >= 0 /\\ y >= 0 /\\ x + y <= 1) \\/ (x >= 2 /\\ x <= 3 /\\ y >= 0 /\\ y <= 1)"

let check name expected args = Alcotest.(check int) name expected (run args)

let capture args =
  let out = Filename.temp_file "spatialdb_stdout" ".txt"
  and err = Filename.temp_file "spatialdb_stderr" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove out; Sys.remove err) @@ fun () ->
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote binary) args (Filename.quote out)
         (Filename.quote err))
  in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  (code, read out, read err)

let success_tests =
  [
    t "binary exists where the test expects it" (fun () ->
        Alcotest.(check bool) binary true (Sys.file_exists binary));
    t "explain exits 0 (tree and json)" (fun () ->
        check "tree" 0 ("explain " ^ fig1);
        check "json" 0 ("explain " ^ fig1 ^ " --format json");
        check "volume task" 0 ("explain " ^ fig1 ^ " --task volume"));
    t "volume --mode exact exits 0" (fun () -> check "exact" 0 ("volume " ^ fig1 ^ " --mode exact"));
    t "explain --format json shows exact and sampled leaf volumes" (fun () ->
        let volume_of d =
          let vars, formula = Test_plan.body_formula d in
          let out = Filename.temp_file "explain" ".json" in
          let code =
            Sys.command
              (Printf.sprintf "%s explain -v %s -f %s --format json > %s 2>/dev/null"
                 (Filename.quote binary) (String.concat "," vars) (Filename.quote formula)
                 (Filename.quote out))
          in
          Alcotest.(check int) "explain exit" 0 code;
          let doc = Scdb_json.Json.parse (In_channel.with_open_bin out In_channel.input_all) in
          Sys.remove out;
          match Scdb_json.Json.member "root" doc with
          | Some root -> Option.bind (Scdb_json.Json.member "volume" root) Scdb_json.Json.to_string
          | None -> None
        in
        Alcotest.(check (option string)) "5-D body" (Some "exact") (volume_of 5);
        Alcotest.(check (option string)) "8-D body" (Some "sampled") (volume_of 8));
    t "plan prints the root's Cost decision" (fun () ->
        let plan vars formula =
          let code, out, _ =
            capture (Printf.sprintf "plan -v %s -f %s" vars (Filename.quote formula))
          in
          Alcotest.(check int) "plan exit" 0 code;
          out
        in
        let union = plan "x,y" fig1_union in
        Alcotest.(check bool) "union root" true (Test_flight.contains union "union over 2 tuple(s)");
        Alcotest.(check bool) "union exact" true
          (Test_flight.contains union "volume        : exact");
        Alcotest.(check bool) "no predicted work" true
          (Test_flight.contains union "predicted work: 0 ");
        let vars, formula = Test_plan.body_formula 8 in
        let cube = plan (String.concat "," vars) formula in
        Alcotest.(check bool) "8-D body sampled" true
          (Test_flight.contains cube "volume        : sampled"));
  ]

let usage_tests =
  [
    t "unknown volume mode exits 2" (fun () ->
        check "mode" 2 ("volume " ^ fig1 ^ " --mode bogus"));
    t "unknown sample method exits 2" (fun () ->
        check "method" 2 ("sample " ^ fig1 ^ " --method bogus"));
    t "unknown explain format/task exit 2" (fun () ->
        check "format" 2 ("explain " ^ fig1 ^ " --format bogus");
        check "program format" 2 ("explain " ^ fig1 ^ " --format program");
        check "task" 2 ("explain " ^ fig1 ^ " --task bogus"));
    t "unknown report format exits 2" (fun () ->
        check "format" 2 ("report " ^ fig1 ^ " --format bogus"));
    t "unknown log level exits 2" (fun () ->
        check "level" 2 ("sample " ^ fig1 ^ " -n 1 --log-level bogus"));
  ]

let cmdline_tests =
  [
    t "unknown flag exits 124" (fun () -> check "flag" 124 ("explain " ^ fig1 ^ " --bogus-flag"));
    t "unknown subcommand exits 124" (fun () ->
        check "subcommand" 124 "frobnicate";
        check "profile" 124 ("profile " ^ fig1 ^ " -n 1"));
    t "missing required arguments exit 124" (fun () -> check "no args" 124 "sample");
  ]

let runtime_tests =
  [
    t "formula parse error exits 1" (fun () ->
        check "parse" 1 "explain -v x -f \"x >= nonsense\"");
    t "empty relation exits 1" (fun () ->
        check "empty" 1 "sample -v x -f \"x >= 1 /\\ x <= 0\" -n 1");
  ]

(* The suite keeps the name it had when it also covered the instruction
   profiler. *)
let profile_tests =
  [
    t "report --engine vm-opt exits 0, interp rejects bogus engine" (fun () ->
        check "vm-opt" 0 ("report " ^ fig1 ^ " -n 2 --engine vm-opt -o /dev/null");
        check "bogus" 2 ("report " ^ fig1 ^ " -n 2 --engine bogus"));
  ]

(* The document validator (bench/validate.exe) on fresh output of each
   kind; it sits next to the binary in the build tree. *)
let validator =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bench" "validate.exe")

let validate args = Sys.command (Filename.quote validator ^ " " ^ args ^ " >/dev/null 2>&1")

let union =
  "-v x,y -f \"(x >= 0 /\\ y >= 0 /\\ x + y <= 1) \\/ (x >= 2 /\\ x <= 3 /\\ y >= 0 /\\ y <= 1)\""

(* Run [f] on fresh temporary file names, removed afterwards. *)
let with_files names f =
  let paths = List.map (fun n -> Filename.temp_file "spatialdb_validate" n) names in
  Fun.protect ~finally:(fun () -> List.iter (fun p -> if Sys.file_exists p then Sys.remove p) paths)
    (fun () -> f paths)

(* Replace the first number after [key] in [doc] with null. *)
let null_after key doc =
  let rec find i = if String.sub doc i (String.length key) = key then i else find (i + 1) in
  let start = find 0 + String.length key in
  let stop = ref start in
  while not (String.contains ",]}" doc.[!stop]) do
    incr stop
  done;
  String.sub doc 0 start ^ "null" ^ String.sub doc !stop (String.length doc - !stop)

let validate_tests =
  let q = Filename.quote in
  let accepts kind args = Alcotest.(check int) (kind ^ " accepted") 0 (validate (kind ^ " " ^ args)) in
  [
    t "validate accepts fresh reports and rejects a null R-hat" (fun () ->
        with_files [ ".json"; ".json"; ".json" ] @@ function
        | [ interp; vmopt; broken ] ->
            check "report" 0 ("report " ^ fig1 ^ " -n 2 --seed 42 -o " ^ q interp);
            accepts "report" (q interp);
            check "vm-opt report" 0 ("report " ^ union ^ " -n 2 --seed 42 --engine vm-opt -o " ^ q vmopt);
            accepts "report" (q vmopt);
            let doc = In_channel.with_open_bin interp In_channel.input_all in
            Out_channel.with_open_bin broken (fun oc -> output_string oc (null_after "\"rhat\": [" doc));
            Alcotest.(check int) "null R-hat rejected" 1 (validate ("report " ^ q broken));
            (* report/6 has no profile block under any engine. *)
            let profiled = "{\n  \"profile\": null," ^ String.sub doc 1 (String.length doc - 1) in
            Out_channel.with_open_bin broken (fun oc -> output_string oc profiled);
            Alcotest.(check int) "profile block rejected" 1 (validate ("report " ^ q broken))
        | _ -> assert false);
    t "validate accepts a fresh plan, and no longer knows profiles" (fun () ->
        with_files [ ".json" ] @@ function
        | [ plan ] ->
            Alcotest.(check int) "explain" 0
              (Sys.command (q binary ^ " explain " ^ fig1 ^ " --format json > " ^ q plan));
            accepts "plan" (q plan);
            Alcotest.(check int) "profile subcommand" 1 (validate ("profile " ^ q plan))
        | _ -> assert false);
    t "validate accepts fresh logs, metrics and status" (fun () ->
        with_files [ ".jsonl"; ".prom"; ".json" ] @@ function
        | [ log; prom; status ] ->
            check "sample" 0
              ("sample " ^ fig1 ^ " -n 5 --seed 42 --log-level debug --log-out " ^ q log
             ^ " --metrics-out " ^ q prom);
            accepts "logs" ("--log " ^ q log ^ " --metrics " ^ q prom);
            check "jobs" 0 ("sample " ^ union ^ " -n 20 --seed 42 --jobs 2 --status-out " ^ q status);
            accepts "status" (q status ^ " --min-contexts 2")
        | _ -> assert false);
    t "validate accepts a fresh audit" (fun () ->
        with_files [ ".json" ] @@ function
        | [ audit ] ->
            check "audit" 0 ("audit " ^ fig1 ^ " --seed 1 --runs 4 --oracle exact --out " ^ q audit);
            accepts "audit" (q audit)
        | _ -> assert false);
  ]

(* ---------------- sample output ---------------- *)

module Flight = Scdb_gis.Flight
module Flightrec = Scdb_log.Flightrec

(* Run the binary; return its exit code, stdout and stderr. *)
(* The reference rendering of a stream: Printf's %.6f, tab-separated,
   one line per point. *)
let render points =
  String.concat ""
    (List.map
       (fun p -> String.concat "\t" (List.map (Printf.sprintf "%.6f") (Array.to_list p)) ^ "\n")
       points)

let flight ?(formula = fig1_union) ?(delta = 0.1) ~engine ~method_ ~seed n =
  { Flight.vars = [ "x"; "y" ]; formula; n; seed; eps = 0.2; delta; method_; engine }

let sample_args (a : Flight.args) =
  Printf.sprintf "sample -v x,y -f %s -n %d --seed %d --delta %.17g --engine %s --method %s"
    (Filename.quote a.Flight.formula) a.Flight.n a.Flight.seed a.Flight.delta a.Flight.engine
    a.Flight.method_

let stream (a : Flight.args) =
  match Flight.run a with
  | Ok o -> o.Flight.points
  | Error m -> Alcotest.failf "Flight.run (%s/%s) failed: %s" a.Flight.engine a.Flight.method_ m

let same_stdout name expected extra (a : Flight.args) =
  let code, out, _ = capture (sample_args a ^ " " ^ extra) in
  Alcotest.(check int) (name ^ ": exit") 0 code;
  Alcotest.(check string) (name ^ ": stdout") expected out

(* Eight nearly equal boxes: Karp–Luby accepts a trial with
   probability ~1/8, and at delta 0.99 a draw gets 4 × 4 trials, so
   seed 1 fails for good after a short prefix. *)
let overlapping =
  String.concat " \\/ "
    (List.init 8 (fun i ->
         Printf.sprintf "(x >= 0 /\\ x <= 1 /\\ y >= 0 /\\ y <= 1 + %d/1000)" (i + 1)))

let fixture name =
  Filename.concat (Filename.dirname Sys.executable_name) (Filename.concat "fixtures" name)

let stream_tests =
  [
    t "sample stdout is the %.6f rendering of the stream, for every engine and method" (fun () ->
        List.iter
          (fun engine ->
            List.iter
              (fun method_ ->
                let a = flight ~engine ~method_ ~seed:42 40 in
                let name = engine ^ "/" ^ method_ in
                let expected = render (stream a) in
                same_stdout name expected "" a;
                with_files [ ".json" ] @@ function
                | [ rec_ ] -> (
                    same_stdout (name ^ " --record") expected ("--record " ^ Filename.quote rec_) a;
                    match Flightrec.read rec_ with
                    | Ok r ->
                        Alcotest.(check string) (name ^ ": record") expected
                          (render r.Flightrec.samples)
                    | Error m -> Alcotest.failf "%s: record unreadable: %s" name m)
                | _ -> assert false)
              [ "walk"; "grid"; "rejection" ])
          Flight.engines);
    t "--diag, --jobs 2 and --status-out print the same streams" (fun () ->
        let a = flight ~engine:"interp" ~method_:"walk" ~seed:7 60 in
        let first = render (stream a) in
        let second = render (stream { a with Flight.seed = 8 }) in
        same_stdout "--diag" first "--diag" a;
        same_stdout "--jobs 2" (first ^ second) "--jobs 2" a;
        same_stdout "--jobs 2 seq" (first ^ second) "--jobs 2 --jobs-mode seq" a;
        with_files [ ".json" ] @@ function
        | [ status ] ->
            same_stdout "--status-out" first ("--status-out " ^ Filename.quote status) a
        | _ -> assert false);
    t "a draw failing midway leaves its prefix on stdout and exits 1" (fun () ->
        List.iter
          (fun engine ->
            let a = flight ~formula:overlapping ~delta:0.99 ~engine ~method_:"walk" ~seed:1 100 in
            let drawn = ref [] in
            let msg =
              match Flight.run ~sink:(fun p -> drawn := p :: !drawn) a with
              | Ok _ -> Alcotest.failf "%s: the draw should fail" engine
              | Error m -> m
            in
            let prefix = List.rev !drawn in
            Alcotest.(check bool) (engine ^ ": a prefix was drawn") true (prefix <> []);
            Alcotest.(check bool) (engine ^ ": short of n") true (List.length prefix < 100);
            with_files [ ".json" ] @@ fun status ->
            List.iter
              (fun extra ->
                let code, out, err = capture (sample_args a ^ extra) in
                let name = engine ^ extra in
                Alcotest.(check int) (name ^ ": exit") 1 code;
                Alcotest.(check string) (name ^ ": stdout prefix") (render prefix) out;
                Alcotest.(check string) (name ^ ": stderr") ("spatialdb: " ^ msg ^ "\n") err)
              ("" :: List.map (fun f -> " --status-out " ^ Filename.quote f) status))
          [ "interp"; "vm-opt" ]);
    t "committed flight records replay through the CLI (recorded and cross engine)" (fun () ->
        List.iter
          (fun (file, engines) ->
            List.iter
              (fun engine ->
                let extra = match engine with None -> "" | Some e -> " --engine " ^ e in
                check (file ^ extra) 0 ("replay " ^ Filename.quote (fixture file) ^ extra))
              engines)
          [
            ("union_k3.flightrec.json", [ None; Some "vm" ]);
            ("incremental_k1.flightrec.json", [ None; Some "vm" ]);
            ("fig1_rejection_interp.flightrec.json", [ None; Some "vm" ]);
            ("union_dup_vmopt.flightrec.json", [ None ]);
          ]);
  ]

(* ---------------- rewrite tags ---------------- *)

(* A strict and a non-strict copy of the triangle: vm-opt shares one
   leaf's piece and weight with the other. *)
let duplicate_leaf =
  "(x > 0 /\\ y > 0 /\\ x + y < 1) \\/ (x >= 0 /\\ y >= 0 /\\ x + y <= 1) \\/ (2 <= x /\\ x \
   <= 3 /\\ 0 <= y /\\ y <= 1)"

let engine_tests =
  [
    t "vm-opt attribution carries the rewritten plan's tags (sample --progress, report)" (fun () ->
        let progress_table engine formula =
          let code, _, err =
            capture
              (Printf.sprintf "sample -v x,y -f %s -n 20 --seed 42 --engine %s --progress"
                 (Filename.quote formula) engine)
          in
          Alcotest.(check int) (engine ^ " sample exit") 0 code;
          err
        in
        List.iter
          (fun (formula, tag) ->
            Alcotest.(check bool) (tag ^ " in the --progress table") true
              (Test_flight.contains (progress_table "vm-opt" formula) tag);
            Alcotest.(check bool) (tag ^ " not under vm") false
              (Test_flight.contains (progress_table "vm" formula) tag);
            with_files [ ".json" ] @@ function
            | [ out ] ->
                check "report" 0
                  (Printf.sprintf "report -v x,y -f %s -n 20 --seed 42 --engine vm-opt -o %s"
                     (Filename.quote formula) (Filename.quote out));
                let rows =
                  match
                    Scdb_json.Json.member "cost_attribution"
                      (Scdb_json.Json.parse (In_channel.with_open_bin out In_channel.input_all))
                  with
                  | Some (Scdb_json.Json.Arr rows) -> rows
                  | _ -> Alcotest.fail "report has no cost_attribution array"
                in
                let tags =
                  List.concat_map
                    (fun row ->
                      match Scdb_json.Json.member "tags" row with
                      | Some (Scdb_json.Json.Arr ts) -> List.filter_map Scdb_json.Json.to_string ts
                      | _ -> [])
                    rows
                in
                Alcotest.(check bool) (tag ^ " on a report row") true (List.mem tag tags)
            | _ -> assert false)
          [ (fig1_union, "rejection_box_substituted"); (duplicate_leaf, "shared_union_leaf") ]);
  ]

let suites =
  [
    ("cli.success", success_tests);
    ("cli.usage", usage_tests);
    ("cli.cmdline", cmdline_tests);
    ("cli.runtime", runtime_tests);
    ("cli.profile", profile_tests);
    ("cli.validate", validate_tests);
    ("cli.stream", stream_tests);
    ("cli.engine", engine_tests);
  ]
