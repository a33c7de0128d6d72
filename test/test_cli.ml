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

let check name expected args = Alcotest.(check int) name expected (run args)

let success_tests =
  [
    t "binary exists where the test expects it" (fun () ->
        Alcotest.(check bool) binary true (Sys.file_exists binary));
    t "explain exits 0 (tree and json)" (fun () ->
        check "tree" 0 ("explain " ^ fig1);
        check "json" 0 ("explain " ^ fig1 ^ " --format json");
        check "volume task" 0 ("explain " ^ fig1 ^ " --task volume"));
    t "volume --mode exact exits 0" (fun () -> check "exact" 0 ("volume " ^ fig1 ^ " --mode exact"));
  ]

let usage_tests =
  [
    t "unknown volume mode exits 2" (fun () ->
        check "mode" 2 ("volume " ^ fig1 ^ " --mode bogus"));
    t "unknown sample method exits 2" (fun () ->
        check "method" 2 ("sample " ^ fig1 ^ " --method bogus"));
    t "unknown explain format/task exit 2" (fun () ->
        check "format" 2 ("explain " ^ fig1 ^ " --format bogus");
        check "task" 2 ("explain " ^ fig1 ^ " --task bogus"));
    t "unknown report format exits 2" (fun () ->
        check "format" 2 ("report " ^ fig1 ^ " --format bogus"));
    t "unknown log level exits 2" (fun () ->
        check "level" 2 ("sample " ^ fig1 ^ " -n 1 --log-level bogus"));
    t "unknown profile mode exits 2" (fun () ->
        check "sample" 2 ("sample " ^ fig1 ^ " -n 1 --engine vm --profile=bogus");
        check "profile cmd" 2 ("profile " ^ fig1 ^ " -n 1 --mode bogus"));
    t "profile rejects the interpreter engine" (fun () ->
        check "profile cmd" 2 ("profile " ^ fig1 ^ " -n 1 --engine interp"));
  ]

let cmdline_tests =
  [
    t "unknown flag exits 124" (fun () -> check "flag" 124 ("explain " ^ fig1 ^ " --bogus-flag"));
    t "unknown subcommand exits 124" (fun () -> check "subcommand" 124 "frobnicate");
    t "missing required arguments exit 124" (fun () -> check "no args" 124 "sample");
  ]

let runtime_tests =
  [
    t "formula parse error exits 1" (fun () ->
        check "parse" 1 "explain -v x -f \"x >= nonsense\"");
    t "empty relation exits 1" (fun () ->
        check "empty" 1 "sample -v x -f \"x >= 1 /\\ x <= 0\" -n 1");
    t "sample --profile under interp exits 1" (fun () ->
        check "interp" 1 ("sample " ^ fig1 ^ " -n 1 --profile"));
  ]

let profile_tests =
  [
    t "profile exits 0 and writes a document" (fun () ->
        let out = Filename.temp_file "spatialdb_profile" ".json" in
        check "run" 0 ("profile " ^ fig1 ^ " -n 2 --out " ^ Filename.quote out);
        let ic = open_in out in
        let len = in_channel_length ic in
        close_in ic;
        Alcotest.(check bool) "document non-empty" true (len > 0);
        Sys.remove out);
    t "sample --profile exits 0 under both compiled engines" (fun () ->
        check "vm" 0 ("sample " ^ fig1 ^ " -n 2 --engine vm --profile=counting");
        check "vm-opt" 0 ("sample " ^ fig1 ^ " -n 2 --engine vm-opt --profile"));
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
            Alcotest.(check int) "null R-hat rejected" 1 (validate ("report " ^ q broken))
        | _ -> assert false);
    t "validate accepts a fresh plan and profile" (fun () ->
        with_files [ ".json"; ".json" ] @@ function
        | [ plan; profile ] ->
            Alcotest.(check int) "explain" 0
              (Sys.command (q binary ^ " explain " ^ fig1 ^ " --format json > " ^ q plan));
            accepts "plan" (q plan);
            check "profile" 0 ("profile " ^ union ^ " -n 5 --seed 42 --out " ^ q profile);
            accepts "profile" (q profile)
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

let suites =
  [
    ("cli.success", success_tests);
    ("cli.usage", usage_tests);
    ("cli.cmdline", cmdline_tests);
    ("cli.runtime", runtime_tests);
    ("cli.profile", profile_tests);
    ("cli.validate", validate_tests);
  ]
