(* The benchmark's own tests: the tail-percentile rule, the metric-name
   grammar (and BENCHMARK.json against it), failed operations on an
   empty and an unbounded relation, and seed determinism of the query
   lists.  Returns the process exit code. *)

module W = Workloads
module Jm = Scdb_trace.Json_min

let failures = ref 0

let expect name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let tail_rule () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  (match Stats.tail xs with
  | Some (p, _, beyond) -> expect "tail: 100 samples -> p90 with 10 beyond" (p = 90.0 && beyond = 10)
  | None -> expect "tail: 100 samples -> p90 with 10 beyond" false);
  expect "tail: 15 samples -> none (fewer than 10 beyond p50)" (Stats.tail (List.init 15 float_of_int) = None);
  (match Stats.tail (List.init 1001 float_of_int) with
  | Some (p, _, beyond) -> expect "tail: 1001 samples -> p99 with >= 10 beyond" (p = 99.0 && beyond >= 10)
  | None -> expect "tail: 1001 samples -> p99 with >= 10 beyond" false);
  expect "median of 1..4 is 2.5" (Stats.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5)

let grammar () =
  List.iter
    (fun n -> expect ("valid name " ^ n) (Stats.valid_name n))
    [ "setup_s"; "points_per_s"; "core.draw_us"; "bulk-draw-vm-opt"; "9lives" ];
  List.iter
    (fun n -> expect (Printf.sprintf "invalid name %S" n) (not (Stats.valid_name n)))
    [ ""; "_x"; ".x"; "a b"; "a/b"; String.make 65 'a' ];
  List.iter (fun u -> expect ("valid unit " ^ u) (Stats.valid_unit u)) [ "ms"; "1/s"; "count"; "%"; "MB" ];
  expect "invalid unit" (not (Stats.valid_unit "seconds per run"));
  if Sys.file_exists "BENCHMARK.json" then begin
    let j = Jm.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) in
    let names key =
      Option.value ~default:[]
        (Option.bind (Jm.member key j) Jm.to_list)
      |> List.map (fun m ->
             ( Option.bind (Jm.member "name" m) Jm.to_string,
               Option.bind (Jm.member "unit" m) Jm.to_string ))
    in
    let all = names "workloads" @ names "end_to_end" @ names "per_layer" in
    expect "BENCHMARK.json names follow the grammar"
      (all <> [] && List.for_all (fun (n, _) -> Option.fold ~none:false ~some:Stats.valid_name n) all);
    expect "BENCHMARK.json units follow the grammar"
      (List.for_all (fun (_, u) -> Option.fold ~none:true ~some:Stats.valid_unit u) all);
    let ns = List.filter_map fst all in
    expect "BENCHMARK.json names are unique" (List.length (List.sort_uniq compare ns) = List.length ns);
    expect "BENCHMARK.json workloads are the benchmark's"
      (List.filter_map fst (names "workloads") = List.map (fun (w : W.workload) -> w.name) W.all)
  end

let failed_operations ~bin ~errfile =
  List.iter
    (fun (what, vars, formula) ->
      let q = { W.id = 0; round = 0; label = what; vars; formula; seed = 1; kind = W.Sample { n = 10; engine = "interp" } } in
      let r = Cli.run ~bin ~errfile (W.argv q) in
      expect (what ^ ": CLI exits non-zero") (not (Cli.exited_ok r));
      expect (what ^ ": no exact oracle") (Result.is_error (Checks.oracle vars formula));
      expect (what ^ ": in-process run is an error, not a crash") (Result.is_error (Inproc.run ~qid:0 q)))
    [ ("empty relation", [ "x" ], "x >= 1 /\\ x <= 0"); ("unbounded relation", [ "x"; "y" ], "x >= 0 /\\ y >= 0") ];
  let o = Result.get_ok (Checks.oracle [ "x"; "y" ] W.figure1) in
  expect "a point outside the relation fails the check"
    (Result.is_error (Checks.check_points o ~n:1 [ [| 1.5; 0.5 |] ]));
  expect "a short stream fails the check" (Result.is_error (Checks.check_sample o ~n:2 "0.1\t0.1\n"));
  expect "a non-finite coordinate fails the check" (Result.is_error (Checks.check_sample o ~n:1 "nan\t0.1\n"));
  (* Every point in the triangle, whose exact share is 1/3. *)
  let skewed = List.init 300 (fun i -> [| 0.1 +. (float_of_int (i mod 7) *. 0.01); 0.1 |]) in
  expect "operand shares off by 2/3 fail the band" (Result.is_error (Checks.check_points o ~n:300 skewed));
  (* 34.5% in the triangle at n=200000: 11 sigma, but within eps*p. *)
  let tri = [| 0.25; 0.25 |] and box = [| 2.5; 0.5 |] in
  let biased = List.init 200_000 (fun i -> if i < 69_000 then tri else box) in
  expect "a share within the eps contract passes, with its deviation in sigmas"
    (match Checks.check_points o ~n:200_000 biased with Ok s -> s > 10.0 | Error _ -> false);
  expect "a report that is not JSON fails the check" (Result.is_error (Checks.check_report o ~n:1 "{\"samples\": ["))

let determinism () =
  List.iter
    (fun (w : W.workload) ->
      let a = W.render (w.queries 7) and b = W.render (w.queries 7) in
      expect (w.name ^ ": same seed, byte-identical query list") (String.equal a b);
      expect (w.name ^ ": another seed, another query list") (a <> W.render (w.queries 8)))
    W.all

let run ~bin ~errfile =
  tail_rule ();
  grammar ();
  failed_operations ~bin ~errfile;
  determinism ();
  Printf.printf "%d failure(s)\n" !failures;
  if !failures = 0 then 0 else 1
