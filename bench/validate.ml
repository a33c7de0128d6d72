(* One validator for every document spatialdb writes.

   Usage:
     validate report FILE [--require-converged]
     validate plan FILE
     validate logs [--log FILE] [--metrics FILE]
     validate status [FILE [--min-contexts N]] [--compare-counters A B]
     validate audit FILE [--check BASELINE]

   Prints one "ok" line per checked document, or exits 1 with a message
   on the first violation.  Every schema string is the writer's own
   value (Report.schema, Plan.schema, ...).  Numbers must be finite
   wherever a number is required: a non-finite value is written as null
   and so fails the check.

   report   the schema; the embedded trace (>= 10 events, ts and dur
            finite and non-negative, ts non-decreasing); the embedded
            plan (every plan rule below); cost_attribution non-empty,
            every row with a finite id, predicted and actual and a tags
            array, at least one executed row (actual > 0), each with a
            finite positive ratio; audit.fingerprint 16 hex digits and
            one error-budget row per plan node; the telemetry schema;
            diagnostics with >= 4 chains, every R-hat and ESS finite,
            and with --require-converged a positive verdict; a known
            engine, no profile block, and under vm-opt at least one row
            with rewrite tags.
   plan     parses through Plan.of_json (node-id contiguity, child
            structure, attribute sanity, "volume" on dfk and union
            nodes exact|sampled), >= 1 node, total_work finite
            positive, every node budget finite non-negative, the root's
            positive (both may be 0 for a volume task on an exact root);
            an exact node predicts zero volume work, and an exact
            union's children are all dfk leaves.
   logs     --log: every JSON line has the schema, a known level, a
            non-empty event, an integer span, a strictly increasing seq,
            a non-decreasing finite ts and finite numeric fields.
            --metrics: a Prometheus text snapshot whose samples follow a
            TYPE line of their family, with valid names, finite values
            (NaN and +-Inf rejected) and non-negative counters.
   status   FILE: the schema, a finite ts, a non-empty contexts array;
            each context has a name, a done flag, finite non-negative
            draws, elapsed, draws_per_sec, work and budget, integer
            counts, and acceptance/budget_burn/ess finite or null.
            --min-contexts N: at least N contexts with draws > 0.
            --compare-counters A B: the "counters" objects of two
            telemetry dumps are exactly equal.
   audit    args.runs >= 1, eps and delta in (0,1); fingerprint 16 hex
            digits; oracle exact|reference; truth finite positive;
            target = 1 - delta; runs estimates; hits recomputed from
            the estimates (within eps of truth) and in [0, runs];
            coverage = hits/runs; 0 <= cp_low <= coverage <= cp_high
            <= 1; the verdict consistent with the bracket and target;
            a non-empty error budget with grants in (0,1) (guards
            exempt).  --check BASELINE: the baseline validates too, the
            fingerprints match, neither verdict is "fail", and the
            coverage reaches the target.

   `make ci` and the CLI tests run it on fresh documents of each
   kind. *)

module J = Scdb_json.Json

(* ---------------- shared checks ---------------- *)

let sub = ref "validate"
let file = ref ""

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline
        (Printf.sprintf "%s: %s%s" !sub (if !file = "" then "" else !file ^ ": ") m);
      exit 1)
    fmt

let read path =
  file := path;
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error m -> fail "%s" m

let parse text = try J.parse text with J.Parse_error m -> fail "invalid JSON: %s" m
let doc_of path = parse (read path)

(* Value checks: [name] is the path printed on failure. *)
let finite name = function
  | J.Num x when Float.is_finite x -> x
  | _ -> fail "%s is not a finite number" name

let string name = function J.Str s -> s | _ -> fail "%s is not a string" name
let list name = function J.Arr l -> l | _ -> fail "%s is not an array" name

(* Field checks: [at] prefixes the key in messages ("rows[2]."). *)
let field ?(at = "") o k =
  match J.member k o with Some v -> v | None -> fail "missing field %s%s" at k

let num ?(at = "") o k = finite (at ^ k) (field ~at o k)
let str ?(at = "") o k = string (at ^ k) (field ~at o k)
let arr ?(at = "") o k = list (at ^ k) (field ~at o k)

let opt_num ?(at = "") o k =
  match field ~at o k with J.Null -> None | v -> Some (finite (at ^ k) v)

let nonneg ?(at = "") o k =
  let x = num ~at o k in
  if x < 0.0 then fail "%s%s is negative (%g)" at k x;
  x

let count ?(at = "") o k =
  let x = nonneg ~at o k in
  if not (Float.is_integer x) then fail "%s%s is not a non-negative integer" at k;
  x

let schema ?(at = "") doc expected =
  match str ~at doc "schema" with
  | s when s = expected -> ()
  | other -> fail "%sunexpected schema %S (want %S)" at other expected

let hex16 name s =
  let hex = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false in
  if not (String.length s = 16 && String.for_all hex s) then
    fail "%s %S is not 16 lowercase hex digits" name s

let unit_interval name x = if x <= 0.0 || x >= 1.0 then fail "%s is %g (need (0,1))" name x

(* Per-node (eps, delta) grants; guards are exempt and write null. *)
let error_budget rows =
  List.iteri
    (fun i row ->
      let at = Printf.sprintf "error_budget[%d]." i in
      if str ~at row "op" <> "guard" then
        List.iter (fun k -> unit_interval (at ^ k) (num ~at row k)) [ "eps"; "delta" ])
    rows

(* ---------------- plan ---------------- *)

let check_plan doc =
  let module Plan = Scdb_plan.Plan in
  let plan = match Plan.of_json doc with Ok p -> p | Error m -> fail "plan: %s" m in
  if plan.Plan.node_count < 1 then fail "empty plan";
  (* One volume estimation of an exact root is predicted to cost nothing. *)
  let free = plan.Plan.task = Plan.Volume && Plan.is_exact plan.Plan.root in
  if not (Float.is_finite plan.Plan.total_work && (plan.Plan.total_work > 0.0 || free)) then
    fail "total_work %g is not finite positive" plan.Plan.total_work;
  Plan.iter_nodes
    (fun n ->
      let b = plan.Plan.budgets.(n.Plan.id) in
      if not (Float.is_finite b && b >= 0.0) then
        fail "node %d budget %g is not finite non-negative" n.Plan.id b;
      (* The "volume" field of dfk and union nodes: an exact volume
         predicts no work, and an exact union sits over dfk leaves. *)
      if Plan.is_exact n then begin
        if Plan.work n.Plan.per_volume <> 0.0 then
          fail "node %d has an exact volume but predicts %g volume work" n.Plan.id
            (Plan.work n.Plan.per_volume);
        if
          not
            (List.for_all
               (fun (c : Plan.node) -> match c.Plan.op with Plan.Dfk _ -> true | _ -> false)
               n.Plan.children)
        then fail "exact union %d has a child that is not a dfk leaf" n.Plan.id
      end)
    plan;
  if plan.Plan.budgets.(plan.Plan.root.Plan.id) <= 0.0 && not free then
    fail "root budget is not positive";
  plan

(* ---------------- report ---------------- *)

let check_report ~require_converged doc =
  schema doc Scdb_gis.Report.schema;
  (* Trace. *)
  let events = arr ~at:"trace." (field doc "trace") "traceEvents" in
  let n_events = List.length events in
  if n_events < 10 then fail "only %d trace events (need >= 10)" n_events;
  ignore
    (List.fold_left
       (fun (i, last) ev ->
         let at = Printf.sprintf "traceEvents[%d]." i in
         let ts = nonneg ~at ev "ts" in
         ignore (nonneg ~at ev "dur");
         if ts < last then fail "%sts breaks monotonicity (%g < %g)" at ts last;
         (i + 1, ts))
       (0, neg_infinity) events);
  ignore (check_plan (field doc "plan"));
  (* Cost attribution. *)
  let rows = arr doc "cost_attribution" in
  if rows = [] then fail "cost_attribution is empty";
  let executed = ref 0 and tagged = ref 0 in
  List.iteri
    (fun i row ->
      let at = Printf.sprintf "cost_attribution[%d]." i in
      ignore (num ~at row "id");
      ignore (num ~at row "predicted");
      if arr ~at row "tags" <> [] then incr tagged;
      if num ~at row "actual" > 0.0 then begin
        incr executed;
        let ratio = num ~at row "ratio" in
        if ratio <= 0.0 then fail "%sratio is %g (need > 0)" at ratio
      end)
    rows;
  if !executed = 0 then fail "no cost_attribution row has actual > 0";
  (* Audit block: fingerprint + per-node error budget. *)
  let audit = field doc "audit" in
  hex16 "audit.fingerprint" (str ~at:"audit." audit "fingerprint");
  let budget = arr ~at:"audit." audit "error_budget" in
  if List.length budget <> List.length rows then
    fail "audit.error_budget has %d rows for %d plan nodes" (List.length budget)
      (List.length rows);
  error_budget budget;
  schema (field doc "telemetry") Scdb_telemetry.Telemetry.schema;
  (* Diagnostics. *)
  let diag = match field doc "diagnostics" with J.Null -> fail "diagnostics is null" | d -> d in
  let at = "diagnostics." in
  let chains = int_of_float (num ~at diag "chains") in
  if chains < 4 then fail "only %d chains (need >= 4)" chains;
  let rhat = List.mapi (fun i v -> finite (Printf.sprintf "rhat[%d]" i) v) (arr ~at diag "rhat") in
  if rhat = [] then fail "diagnostics.rhat is empty";
  let per_chain = arr ~at diag "per_chain" in
  if List.length per_chain <> chains then
    fail "per_chain has %d entries for %d chains" (List.length per_chain) chains;
  List.iteri
    (fun c entry ->
      let at = Printf.sprintf "per_chain[%d]." c in
      match arr ~at entry "ess" with
      | [] -> fail "%sess is empty" at
      | esses -> List.iteri (fun i v -> ignore (finite (Printf.sprintf "%sess[%d]" at i) v)) esses)
    per_chain;
  if require_converged && field ~at diag "converged" <> J.Bool true then
    fail "diagnostics report non-convergence";
  (* Engine: the rewrite tags of vm-opt's plan, and no profile block. *)
  let engine = str ~at:"args." (field doc "args") "engine" in
  if not (List.mem engine Scdb_gis.Flight.engines) then fail "unexpected args.engine %S" engine;
  if engine = "vm-opt" && !tagged = 0 then
    fail "vm-opt report has no attribution row with rewrite tags";
  if J.member "profile" doc <> None then fail "report carries a profile block";
  Printf.sprintf "%d trace events, %d plan nodes (%d executed), %d chains, max R-hat %.4f"
    n_events (List.length rows) !executed chains (List.fold_left Float.max 0.0 rhat)

(* ---------------- logs ---------------- *)

let check_log path =
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' (read path)) in
  if lines = [] then fail "no log events";
  let last_seq = ref (-1) and last_ts = ref neg_infinity in
  List.iteri
    (fun i line ->
      let at = Printf.sprintf "line %d: " (i + 1) in
      let doc = try J.parse line with J.Parse_error m -> fail "%sinvalid JSON: %s" at m in
      schema ~at doc Scdb_log.Log.schema;
      let level = str ~at doc "level" in
      if not (List.mem level [ "debug"; "info"; "warn"; "error" ]) then
        fail "%sunknown level %S" at level;
      if str ~at doc "event" = "" then fail "%sempty event name" at;
      let integer k =
        let v = num ~at doc k in
        if not (Float.is_integer v) then fail "%s%s is not an integer" at k;
        v
      in
      ignore (integer "span");
      let seq = int_of_float (integer "seq") in
      if seq <= !last_seq then fail "%sseq not strictly increasing (%d after %d)" at seq !last_seq;
      last_seq := seq;
      let ts = num ~at doc "ts" in
      if ts < !last_ts then fail "%sts went backwards (%g after %g)" at ts !last_ts;
      last_ts := ts;
      match field ~at doc "fields" with
      | J.Obj kvs ->
          List.iter
            (fun (k, v) ->
              match v with
              | J.Num _ | J.Null -> ignore (finite (at ^ "field " ^ k) v)
              | _ -> ())
            kvs
      | _ -> fail "%sfields is not an object" at)
    lines;
  Printf.sprintf "%d events" (List.length lines)

let valid_metric_name s =
  let start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':' in
  s <> "" && start s.[0] && String.for_all (fun c -> start c || (c >= '0' && c <= '9')) s

(* Split a sample line into its name (any {label="..."} block dropped)
   and its value text. *)
let split_sample line =
  let cut i j =
    Some (String.sub line 0 i, String.trim (String.sub line j (String.length line - j)))
  in
  match (String.index_opt line '{', String.rindex_opt line '}', String.index_opt line ' ') with
  | Some i, Some j, _ when j > i -> cut i (j + 1)
  | Some _, _, _ -> None
  | None, _, Some i -> cut i i
  | None, _, None -> None

let check_metrics path =
  let types = Hashtbl.create 16 and samples = ref 0 in
  List.iteri
    (fun i line ->
      let line = String.trim line and at = Printf.sprintf "line %d: " (i + 1) in
      if line = "" then ()
      else if String.starts_with ~prefix:"# TYPE " line then begin
        match String.split_on_char ' ' (String.sub line 7 (String.length line - 7)) with
        | [ name; ty ] ->
            if not (valid_metric_name name) then fail "%sinvalid metric name %S" at name;
            if not (List.mem ty [ "counter"; "gauge"; "summary"; "histogram"; "untyped" ]) then
              fail "%sinvalid metric type %S" at ty;
            Hashtbl.replace types name ty
        | _ -> fail "%smalformed TYPE line" at
      end
      else if line.[0] = '#' then ()
      else
        match split_sample line with
        | None -> fail "%smalformed sample line %S" at line
        | Some (name, value) ->
            if not (valid_metric_name name) then fail "%sinvalid metric name %S" at name;
            (* A sample belongs to its TYPE family; summaries add _sum/_count. *)
            let family =
              List.find_map
                (fun suffix ->
                  match String.ends_with ~suffix name with
                  | true ->
                      let f = String.sub name 0 (String.length name - String.length suffix) in
                      if Hashtbl.mem types f then Some f else None
                  | false -> None)
                [ ""; "_sum"; "_count" ]
            in
            let family =
              match family with
              | Some f -> f
              | None -> fail "%ssample %S has no preceding TYPE declaration" at name
            in
            let v =
              match float_of_string_opt value with
              | Some v -> v
              | None -> fail "%svalue %S does not parse" at value
            in
            if not (Float.is_finite v) then fail "%s%s is not finite (%s)" at name value;
            if Hashtbl.find types family = "counter" && v < 0.0 then
              fail "%scounter %s is negative (%g)" at name v;
            incr samples)
    (String.split_on_char '\n' (read path));
  if !samples = 0 then fail "no metric samples";
  Printf.sprintf "%d samples" !samples

(* ---------------- status ---------------- *)

let check_status ~min_contexts doc =
  schema doc Scdb_obs.Obs.Status.schema;
  ignore (num doc "ts");
  let ctxs = arr doc "contexts" in
  if ctxs = [] then fail "empty contexts array";
  let active =
    List.fold_left
      (fun active c ->
        let name = str c "name" in
        if name = "" then fail "context without a name";
        let at = Printf.sprintf "context %s: " name in
        (match field ~at c "done" with J.Bool _ -> () | _ -> fail "%sdone is not a bool" at);
        List.iter
          (fun k -> ignore (nonneg ~at c k))
          [ "elapsed"; "draws_per_sec"; "work"; "budget" ];
        List.iter
          (fun k -> ignore (count ~at c k))
          [ "accepted"; "attempts"; "warns"; "errors"; "spans" ];
        List.iter (fun k -> ignore (opt_num ~at c k)) [ "acceptance"; "budget_burn"; "ess" ];
        if nonneg ~at c "draws" > 0.0 then active + 1 else active)
      0 ctxs
  in
  if active < min_contexts then
    fail "only %d context(s) with draws > 0 (expected >= %d)" active min_contexts;
  Printf.sprintf "%d context(s), %d with draws" (List.length ctxs) active

let counters_of path =
  match J.member "counters" (doc_of path) with
  | Some (J.Obj kvs) ->
      List.sort compare (List.map (fun (k, v) -> (k, finite ("counter " ^ k) v)) kvs)
  | _ -> fail "no counters object (not a telemetry dump?)"

let compare_counters a b =
  let ca = counters_of a and cb = counters_of b in
  file := "";
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k cb with
      | None -> fail "counter %s present in %s but missing from %s" k a b
      | Some w -> if v <> w then fail "counter %s differs: %s has %.0f, %s has %.0f" k a v b w)
    ca;
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k ca) then fail "counter %s present in %s but missing from %s" k b a)
    cb;
  Printf.printf "%s: counters of %s and %s are identical (%d counter(s))\n" !sub a b
    (List.length ca)

(* ---------------- audit ---------------- *)

let check_audit doc =
  schema doc Scdb_audit.Audit.schema;
  let args = field doc "args" and at = "args." in
  let runs = int_of_float (num ~at args "runs") in
  if runs < 1 then fail "args.runs is %d (need >= 1)" runs;
  let eps = num ~at args "eps" and delta = num ~at args "delta" in
  unit_interval "args.eps" eps;
  unit_interval "args.delta" delta;
  let fp = str doc "fingerprint" in
  hex16 "fingerprint" fp;
  (match str doc "oracle" with
  | "exact" | "reference" -> ()
  | other -> fail "unknown oracle %S" other);
  let truth = num doc "truth" in
  if truth <= 0.0 then fail "truth is %g (need > 0)" truth;
  let target = num doc "target" in
  if Float.abs (target -. (1.0 -. delta)) > 1e-12 then
    fail "target %g does not match 1 - delta = %g" target (1.0 -. delta);
  let estimates = arr doc "estimates" in
  if List.length estimates <> runs then
    fail "%d estimates for %d runs" (List.length estimates) runs;
  (* A hit is a finite estimate within relative eps of truth (null = a
     declared failure = a miss). *)
  let recomputed =
    List.length
      (List.filter
         (function J.Num v -> Float.abs (v -. truth) <= eps *. truth | _ -> false)
         estimates)
  in
  let hits = int_of_float (num doc "hits") in
  if hits < 0 || hits > runs then fail "hits %d outside [0, %d]" hits runs;
  if hits <> recomputed then
    fail "hits %d but %d estimates are within eps of truth" hits recomputed;
  let coverage = num doc "coverage" in
  let expected = float_of_int hits /. float_of_int runs in
  if Float.abs (coverage -. expected) > 1e-12 then
    fail "coverage %g does not match hits/runs = %g" coverage expected;
  let cp_low = num doc "cp_low" and cp_high = num doc "cp_high" in
  if not (0.0 <= cp_low && cp_low <= coverage && coverage <= cp_high && cp_high <= 1.0) then
    fail "bracket violation: need 0 <= %g <= %g <= %g <= 1" cp_low coverage cp_high;
  let verdict = str doc "verdict" in
  let expected =
    if cp_low >= target then "pass" else if cp_high < target then "fail" else "inconclusive"
  in
  if verdict <> expected then
    fail "verdict %S inconsistent with bracket [%g, %g] and target %g (expected %S)" verdict
      cp_low cp_high target expected;
  let budget = arr doc "error_budget" in
  if budget = [] then fail "error_budget is empty";
  error_budget budget;
  (fp, verdict, coverage, target, runs, hits)

(* ---------------- driver ---------------- *)

(* Split [args] into positionals and the known flags of [arity] (flag,
   number of values). *)
let parse_args arity args =
  let rec go pos flags = function
    | [] -> (List.rev pos, flags)
    | a :: rest when String.starts_with ~prefix:"--" a -> (
        match List.assoc_opt a arity with
        | None -> fail "unknown option %s" a
        | Some n when List.length rest < n -> fail "%s takes %d argument(s)" a n
        | Some n ->
            go pos ((a, List.filteri (fun i _ -> i < n) rest) :: flags)
              (List.filteri (fun i _ -> i >= n) rest))
    | a :: rest -> go (a :: pos) flags rest
  in
  go [] [] args

let ok path what = Printf.printf "%s: %s ok (%s)\n" !sub path what

let one_file = function [ f ] -> f | _ -> fail "expected exactly one FILE"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | cmd :: args -> (
      sub := "validate " ^ cmd;
      match cmd with
      | "report" ->
          let pos, flags = parse_args [ ("--require-converged", 0) ] args in
          let path = one_file pos in
          ok path
            (check_report ~require_converged:(List.mem_assoc "--require-converged" flags)
               (doc_of path))
      | "plan" ->
          let path = one_file (fst (parse_args [] args)) in
          let plan = check_plan (doc_of path) in
          ok path
            (Printf.sprintf "%d nodes, total predicted work %g" plan.Scdb_plan.Plan.node_count
               plan.Scdb_plan.Plan.total_work)
      | "logs" -> (
          match parse_args [ ("--log", 1); ("--metrics", 1) ] args with
          | [], (_ :: _ as flags) ->
              List.iter
                (fun (flag, files) ->
                  let check = if flag = "--log" then check_log else check_metrics in
                  List.iter (fun f -> ok f (check f)) files)
                (List.rev flags)
          | _ -> fail "usage: validate logs [--log FILE] [--metrics FILE]")
      | "status" ->
          let pos, flags =
            parse_args [ ("--min-contexts", 1); ("--compare-counters", 2) ] args
          in
          let min_contexts =
            match List.assoc_opt "--min-contexts" flags with
            | Some [ n ] -> (
                match int_of_string_opt n with
                | Some n -> n
                | None -> fail "malformed --min-contexts %S" n)
            | _ -> 0
          in
          (match pos with
          | [] ->
              if flags = [] then
                fail "usage: validate status [FILE [--min-contexts N]] [--compare-counters A B]"
          | [ path ] -> ok path (check_status ~min_contexts (doc_of path))
          | _ -> fail "expected at most one FILE");
          Option.iter
            (function [ a; b ] -> compare_counters a b | _ -> ())
            (List.assoc_opt "--compare-counters" flags)
      | "audit" ->
          let pos, flags = parse_args [ ("--check", 1) ] args in
          let path = one_file pos in
          let fp, verdict, coverage, target, runs, hits = check_audit (doc_of path) in
          (match List.assoc_opt "--check" flags with
          | Some [ baseline ] ->
              let bfp, bverdict, _, _, _, _ = check_audit (doc_of baseline) in
              file := "";
              if fp <> bfp then
                fail "fingerprint mismatch: fresh %s has %s, ledger %s has %s" path fp baseline bfp;
              if bverdict = "fail" then
                fail "ledger %s records a failed contract — refresh it deliberately" baseline;
              if verdict = "fail" then
                fail "fresh audit %s fails the contract the ledger %s passed" path baseline;
              if coverage < target then
                fail "fresh audit %s coverage %g below contract target %g" path coverage target;
              ok path (Printf.sprintf "against ledger %s, fingerprint %s" baseline fp)
          | _ -> ());
          ok path
            (Printf.sprintf "%d/%d hits, coverage %.4f, verdict %s" hits runs coverage verdict)
      | _ -> fail "unknown subcommand (want report|plan|logs|status|audit)")
  | [] -> fail "usage: validate (report|plan|logs|status|audit) ..."
