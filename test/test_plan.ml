(* Tests for the static cost model (Scdb_plan): the budget-equality
   invariant (the runtime and the planner call the same formulas),
   monotonicity of predicted cost in the accuracy parameters, and the
   spatialdb-plan/1 JSON round trip. *)

module Plan = Scdb_plan.Plan
module Cost = Scdb_plan.Cost
module J = Scdb_json.Json
module Chernoff = Scdb_sampling.Chernoff
module HR = Scdb_sampling.Hit_and_run
module W = Scdb_sampling.Walk
module Union = Scdb_core.Union
module Inter = Scdb_core.Inter
module Boost = Scdb_core.Boost

let t name f = Alcotest.test_case name `Quick f

let leaf ?(eps = 0.2) ?(delta = 0.1) ?(dim = 2) () =
  Plan.dfk ~eps ~delta ~dim ~method_:"walk" ~constraints:3 ~volume_budget:2000 ()

let plan_of ?(eps = 0.2) ?(delta = 0.1) ~task node =
  Plan.finalize ~gamma:0.05 ~eps ~delta ~task node

(* ---------------- budget equality ---------------- *)

(* The invariant the shared Cost module exists for: the budget a plan
   node advertises is the budget the runtime spends, because both call
   the same function.  Checked both at the formula level (runtime
   delegation) and at the plan-attribute level. *)
let equality_tests =
  [
    t "union trials: runtime = Cost = plan attribute" (fun () ->
        List.iter
          (fun (m, delta) ->
            Alcotest.(check int)
              (Printf.sprintf "m=%d delta=%g" m delta)
              (Cost.union_trials ~m ~delta)
              (Union.trials_for ~m ~delta))
          [ (1, 0.1); (2, 0.1); (5, 0.05); (17, 0.01); (3, 0.5) ];
        let children = [ leaf (); leaf () ] in
        let plan = plan_of ~task:(Plan.Sample 1) (Plan.union_ ~eps:0.2 ~delta:0.1 children) in
        match plan.Plan.root.Plan.op with
        | Plan.Union_op { trials; _ } ->
            Alcotest.(check int) "plan union trials" (Union.trials_for ~m:2 ~delta:0.1) trials
        | _ -> Alcotest.fail "root is not a union");
    t "intersection budget: runtime = Cost = plan attribute" (fun () ->
        List.iter
          (fun (dim, k, delta) ->
            Alcotest.(check int)
              (Printf.sprintf "dim=%d k=%d delta=%g" dim k delta)
              (Cost.rejection_budget ~dim ~poly_degree:k ~delta)
              (Inter.budget_for ~dim ~poly_degree:k ~delta))
          [ (1, 1, 0.1); (2, 1, 0.1); (3, 2, 0.05); (6, 2, 0.01) ];
        let plan =
          plan_of ~task:(Plan.Sample 1)
            (Plan.inter_ ~poly_degree:1 ~eps:0.2 ~delta:0.1 [ leaf (); leaf () ])
        in
        match plan.Plan.root.Plan.op with
        | Plan.Inter_op { budget; _ } ->
            Alcotest.(check int) "plan inter budget"
              (Inter.budget_for ~dim:2 ~poly_degree:1 ~delta:0.1)
              budget
        | _ -> Alcotest.fail "root is not an intersection");
    t "chernoff sizing: runtime = Cost" (fun () ->
        List.iter
          (fun (eps, delta) ->
            Alcotest.(check int)
              (Printf.sprintf "additive eps=%g delta=%g" eps delta)
              (Cost.samples_for_additive ~eps ~delta)
              (Chernoff.samples_for_additive ~eps ~delta);
            Alcotest.(check int)
              (Printf.sprintf "ratio eps=%g delta=%g" eps delta)
              (Cost.samples_for_ratio ~eps ~delta ~p_lower:0.25)
              (Chernoff.samples_for_ratio ~eps ~delta ~p_lower:0.25))
          [ (0.3, 0.2); (0.1, 0.1); (0.05, 0.01) ]);
    t "boost runs: runtime = Cost = plan attribute" (fun () ->
        List.iter
          (fun delta ->
            let n = Boost.runs_for ~delta in
            Alcotest.(check int) (Printf.sprintf "delta=%g" delta) (Cost.boost_runs ~delta) n;
            Alcotest.(check bool) "odd" true (n land 1 = 1))
          [ 0.2; 0.1; 0.01; 0.001 ];
        let plan = plan_of ~task:Plan.Volume (Plan.boost_ ~delta:0.1 (leaf ())) in
        match plan.Plan.root.Plan.op with
        | Plan.Boost_op { runs } ->
            Alcotest.(check int) "plan boost runs" (Boost.runs_for ~delta:0.1) runs
        | _ -> Alcotest.fail "root is not a boost");
    t "walk schedules: runtime = Cost = plan attribute" (fun () ->
        for dim = 1 to 8 do
          Alcotest.(check int)
            (Printf.sprintf "hit-and-run dim=%d" dim)
            (Cost.hit_and_run_steps ~dim) (HR.default_steps ~dim);
          Alcotest.(check int)
            (Printf.sprintf "lattice dim=%d" dim)
            (Cost.lattice_steps ~dim ~eps:0.2)
            (W.default_steps ~dim ~eps:0.2)
        done;
        let node = Plan.dfk ~eps:0.2 ~delta:0.1 ~dim:3 ~method_:"walk" () in
        match node.Plan.op with
        | Plan.Dfk { walk_steps; _ } ->
            Alcotest.(check int) "plan walk steps" (HR.default_steps ~dim:3) walk_steps
        | _ -> Alcotest.fail "not a dfk leaf");
  ]

(* ---------------- monotonicity ---------------- *)

let total ?(eps = 0.2) ?(delta = 0.1) ?(arity = 2) ?(dim = 2) task =
  let children = List.init arity (fun _ -> leaf ~eps:(eps /. 3.0) ~delta:(delta /. 4.0) ~dim ()) in
  let root =
    if arity = 1 then leaf ~eps ~delta ~dim () else Plan.union_ ~eps ~delta children
  in
  (plan_of ~eps ~delta ~task root).Plan.total_work

let check_nondecreasing name xs =
  List.iteri
    (fun i (label, w) ->
      if i > 0 then begin
        let _, prev = List.nth xs (i - 1) in
        if w < prev then
          Alcotest.fail (Printf.sprintf "%s: %s gives %g < previous %g" name label w prev)
      end)
    xs

let monotonicity_tests =
  [
    t "total work non-decreasing in 1/eps" (fun () ->
        check_nondecreasing "volume task, shrinking eps"
          (List.map
             (fun eps -> (Printf.sprintf "eps=%g" eps, total ~eps Plan.Volume))
             [ 0.5; 0.3; 0.2; 0.1; 0.05 ]));
    t "total work non-decreasing in ln(1/delta)" (fun () ->
        check_nondecreasing "sample task, shrinking delta"
          (List.map
             (fun delta -> (Printf.sprintf "delta=%g" delta, total ~delta (Plan.Sample 4)))
             [ 0.5; 0.2; 0.1; 0.01; 0.001 ]));
    t "total work non-decreasing in dimension" (fun () ->
        check_nondecreasing "sample task, growing dim"
          (List.map
             (fun dim -> (Printf.sprintf "dim=%d" dim, total ~dim (Plan.Sample 4)))
             [ 1; 2; 3; 5; 8 ]));
    t "total work non-decreasing in union arity" (fun () ->
        check_nondecreasing "sample task, growing arity"
          (List.map
             (fun arity -> (Printf.sprintf "arity=%d" arity, total ~arity (Plan.Sample 4)))
             [ 2; 3; 5; 9 ]));
    t "sample budget non-decreasing in n" (fun () ->
        check_nondecreasing "growing n"
          (List.map
             (fun n -> (Printf.sprintf "n=%d" n, total (Plan.Sample n)))
             [ 1; 10; 100 ]));
  ]

(* ---------------- JSON round trip ---------------- *)

let mixed_plan () =
  let a = leaf () and b = leaf ~dim:2 () in
  let g = Plan.grid_leaf ~dim:2 ~cells:400.0 in
  let u = Plan.union_ ~eps:0.2 ~delta:0.025 [ a; b; g ] in
  let d = Plan.diff_ ~eps:0.2 ~delta:0.1 u (Plan.guard ~dim:2) in
  plan_of ~task:(Plan.Report 10) d

let json_tests =
  [
    t "to_json parses and round-trips bit-exactly" (fun () ->
        let plan = mixed_plan () in
        let s = Plan.to_json plan in
        let doc = try J.parse s with J.Parse_error m -> Alcotest.fail ("parse: " ^ m) in
        (match J.to_string (Option.get (J.member "schema" doc)) with
        | Some schema -> Alcotest.(check string) "schema" Plan.schema schema
        | None -> Alcotest.fail "schema missing");
        match Plan.of_json doc with
        | Error m -> Alcotest.fail ("of_json: " ^ m)
        | Ok plan' ->
            Alcotest.(check int) "node_count" plan.Plan.node_count plan'.Plan.node_count;
            Alcotest.(check (float 0.0)) "total_work" plan.Plan.total_work plan'.Plan.total_work;
            Array.iteri
              (fun i b ->
                Alcotest.(check (float 0.0))
                  (Printf.sprintf "budget[%d]" i)
                  b
                  plan'.Plan.budgets.(i))
              plan.Plan.budgets;
            Alcotest.(check string) "re-emission is identical" s (Plan.to_json plan'));
    t "of_json rejects a broken document" (fun () ->
        let bad = J.parse {|{"schema": "spatialdb-plan/1", "task": "sample"}|} in
        match Plan.of_json bad with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted a document without a root");
    t "budget rows cover every node exactly once" (fun () ->
        let plan = mixed_plan () in
        let rows = Plan.budget_rows plan in
        Alcotest.(check int) "row count" plan.Plan.node_count (Array.length rows);
        Array.iteri
          (fun i (id, name, w) ->
            Alcotest.(check int) "dense ids" i id;
            Alcotest.(check bool) "named" true (name <> "");
            Alcotest.(check bool) "finite budget" true (Float.is_finite w && w >= 0.0))
          rows);
  ]

(* ---------------- exact or sampled leaf volumes ---------------- *)

module Plan_build = Scdb_gis.Plan_build
module Plan_exec = Scdb_gis.Plan_exec
module Observable = Scdb_core.Observable
module Rng = Scdb_rng.Rng

let ts name f = Alcotest.test_case name `Slow f

(* The benchmark's convex body in dimension d: a box with sides 3/2 and
   2 cut by one slanted halfspace through 3/4 of its diagonal, so 2d + 1
   constraints. *)
let body_formula d =
  let v i = Printf.sprintf "x%d" (i + 1) in
  let even i = i mod 2 = 0 in
  let bounds =
    List.init d (fun i ->
        Printf.sprintf "0 <= %s /\\ %s <= %s" (v i) (v i) (if even i then "3/2" else "2"))
  in
  let lhs = String.concat " + " (List.init d (fun i -> if even i then v i else "2*" ^ v i)) in
  let eighths = List.fold_left ( + ) 0 (List.init d (fun i -> if even i then 12 else 32)) in
  ( List.init d v,
    String.concat " /\\ " (bounds @ [ Printf.sprintf "%s <= %d/8" lhs (eighths * 3 / 4) ]) )

let body d =
  let vars, formula = body_formula d in
  Relation.of_formula ~dim:d (Scdb_constr.Parser.parse ~vars formula)

let tuple_of r = match Relation.tuples r with [ t ] -> t | _ -> Alcotest.fail "one tuple"

let leaf_of ~dim r = Plan_build.leaf_node ~eps:0.2 ~delta:0.1 ~dim (tuple_of r)

let has needle s =
  let n = String.length needle in
  let rec go i = i + n <= String.length s && (String.sub s i n = needle || go (i + 1)) in
  go 0

(* A 3-D corner cut of a box whose coefficients are 40-digit rationals. *)
let big_tuple =
  let digits k =
    let s = String.init 40 (fun i -> Char.chr (48 + (((i * 7) + (k * 3) + 1) mod 10))) in
    if s.[0] = '0' then "1" ^ s else s
  in
  let c k = Rational.of_string (digits k ^ "/" ^ digits (k + 11)) in
  let le coeffs rhs = Atom.le (Term.make coeffs Rational.zero) (Term.const rhs) in
  let z = Rational.zero and m1 = Rational.of_int (-1) in
  [
    le [ (0, m1) ] z; le [ (1, m1) ] z; le [ (2, m1) ] z;
    le [ (0, c 1) ] (c 2); le [ (1, c 3) ] (c 4); le [ (2, c 5) ] (c 6);
    le [ (0, c 7); (1, c 8); (2, c 9) ] (Rational.mul (c 10) (Rational.of_int 2));
  ]

let exact_tests =
  [
    t "cost gate: the 5-D benchmark body is exact, an 8-D body stays sampled" (fun () ->
        let b5 = body 5 and b8 = body 8 in
        Alcotest.(check int) "5-D constraints" 11 (List.length (tuple_of b5));
        Alcotest.(check int) "8-D constraints" 17 (List.length (tuple_of b8));
        let l5 = leaf_of ~dim:5 b5 and l8 = leaf_of ~dim:8 b8 in
        Alcotest.(check bool) "5-D exact" true (Plan.is_exact l5);
        Alcotest.(check bool) "8-D sampled" false (Plan.is_exact l8);
        (* An exact leaf predicts no volume work; a sampled one its walk. *)
        Alcotest.(check (float 0.0)) "exact per_volume" 0.0 (Plan.work l5.Plan.per_volume);
        Alcotest.(check bool) "sampled per_volume" true (Plan.work l8.Plan.per_volume > 0.0);
        let json l = Plan.to_json (plan_of ~task:Plan.Volume l) in
        Alcotest.(check bool) "json says exact" true (has "\"volume\": \"exact\"" (json l5));
        Alcotest.(check bool) "json says sampled" true (has "\"volume\": \"sampled\"" (json l8));
        (* The same leaves without the cost model keep their DFK estimate. *)
        let off = Plan_build.leaf_node ~exact_when_cheap:false ~eps:0.2 ~delta:0.1 ~dim:5 (tuple_of b5) in
        Alcotest.(check bool) "opt-out stays sampled" false (Plan.is_exact off));
    t "the gate compares Lasserre work with the DFK walk" (fun () ->
        (* Falling factorial 11·10·9·8·7 at half a step plus 10 LPs at
           11·5 steps each. *)
        Alcotest.(check (float 1e-9)) "5-D, 11 constraints" (27720.0 +. 550.0)
          (Cost.lasserre_work ~dim:5 ~constraints:11);
        Alcotest.(check bool) "cheaper than its DFK walk" true
          (Cost.exact_volume_pays ~dim:5 ~constraints:11 ~sampled_work:(18.0 *. 2000.0 *. 227.0));
        Alcotest.(check bool) "unknown size never exact" false
          (Cost.exact_volume_pays ~dim:2 ~constraints:0 ~sampled_work:1e9);
        Alcotest.(check bool) "monotone in constraints" true
          (Cost.lasserre_work ~dim:4 ~constraints:9 < Cost.lasserre_work ~dim:4 ~constraints:10));
    t "exact leaves survive the plan/1 JSON round trip" (fun () ->
        let l = leaf_of ~dim:5 (body 5) in
        let p = plan_of ~task:(Plan.Report 10) (Plan.union_ ~eps:0.2 ~delta:0.1 [ l; leaf () ]) in
        match Plan.of_json (J.parse (Plan.to_json p)) with
        | Error e -> Alcotest.failf "round trip: %s" e
        | Ok q ->
            Alcotest.(check (list bool)) "decisions" [ true; false ]
              (List.map Plan.is_exact q.Plan.root.Plan.children));
    t "an exact leaf's whole delta grant is slack" (fun () ->
        let rng = Rng.create 3 in
        let triangle =
          Relation.of_formula ~dim:2
            (Scdb_constr.Parser.parse ~vars:[ "x"; "y" ] "x >= 0 /\\ y >= 0 /\\ x + y <= 1")
        in
        match
          Plan_exec.observable_of_relation ~gamma:0.05 ~eps:0.2 ~delta:0.1 ~task:Plan.Volume rng
            triangle
        with
        | None -> Alcotest.fail "triangle should plan"
        | Some (plan, obs) ->
            Plan_exec.arm plan;
            let v = Observable.volume obs rng ~eps:0.2 ~delta:0.1 in
            let attr = Plan_exec.attribution plan in
            Scdb_progress.Progress.stop ();
            Alcotest.(check (float 0.0)) "exact volume" 0.5 v;
            Alcotest.(check (float 0.0)) "predicted work" 0.0 attr.(0).Plan_exec.predicted;
            Alcotest.(check (float 0.0)) "actual work" 0.0 attr.(0).Plan_exec.actual;
            let b = (Plan_exec.budget_attribution plan attr).(0) in
            Alcotest.(check (float 0.0)) "granted delta" 0.1 b.Plan_exec.b_delta;
            Alcotest.(check (float 0.0)) "achieved delta" 0.0 b.Plan_exec.b_delta_achieved;
            Alcotest.(check (float 0.0)) "slack" 0.1 b.Plan_exec.b_slack);
    ts "a 40-digit 3-D leaf is exact and beats its DFK path" (fun () ->
        let r = Relation.make ~dim:3 [ big_tuple ] in
        let volume ~exact_when_cheap =
          let rng = Rng.create 5 in
          match
            Plan_exec.observable_of_relation ~exact_when_cheap ~gamma:0.05 ~eps:0.2 ~delta:0.1
              ~task:Plan.Volume rng r
          with
          | None -> Alcotest.fail "body should plan"
          | Some (plan, obs) ->
              Alcotest.(check bool) "leaf decision" exact_when_cheap
                (Plan.is_exact plan.Plan.root);
              let t0 = Scdb_telemetry.Telemetry.Clock.now () in
              let v = Observable.volume obs rng ~eps:0.2 ~delta:0.1 in
              (v, Scdb_telemetry.Telemetry.Clock.now () -. t0)
        in
        let v_exact, t_exact = volume ~exact_when_cheap:true in
        let _, t_dfk = volume ~exact_when_cheap:false in
        Alcotest.(check (float 0.0)) "Lasserre value"
          (Rational.to_float (Scdb_polytope.Volume_exact.volume_tuple ~dim:3 big_tuple))
          v_exact;
        Alcotest.(check bool)
          (Printf.sprintf "exact %.1f ms < DFK %.1f ms" (t_exact *. 1e3) (t_dfk *. 1e3))
          true (t_exact < t_dfk));
  ]

(* ---------------- exact or sampled union volumes ---------------- *)

module VE = Scdb_polytope.Volume_exact
module Tel = Scdb_telemetry.Telemetry

let relation ~vars formula =
  Relation.of_formula ~dim:(List.length vars) (Scdb_constr.Parser.parse ~vars formula)

let xy = relation ~vars:[ "x"; "y" ]

let fig1 = "(x >= 0 /\\ y >= 0 /\\ x + y <= 1) \\/ (x >= 2 /\\ x <= 3 /\\ y >= 0 /\\ y <= 1)"

let volume_plan ?exact_when_cheap ?(seed = 1) r =
  let rng = Rng.create seed in
  match
    Plan_exec.observable_of_relation ?exact_when_cheap ~gamma:0.05 ~eps:0.2 ~delta:0.1
      ~task:Plan.Volume rng r
  with
  | Some (plan, obs) -> (plan, obs, rng)
  | None -> Alcotest.fail "relation should plan"

let counter name = Option.value ~default:0 (Tel.counter_value name)

let with_telemetry f =
  let was = Tel.enabled () in
  Tel.set_enabled true;
  Tel.reset ();
  Fun.protect ~finally:(fun () -> Tel.set_enabled was) f

let union_tests =
  [
    t "cost rule: the Fig. 1 union and a 3-D 2-piece union plan exact" (fun () ->
        let boxes3 =
          relation ~vars:[ "x"; "y"; "z" ]
            "(0 <= x /\\ x <= 1 /\\ 0 <= y /\\ y <= 1 /\\ 0 <= z /\\ z <= 1) \\/ \
             (1/2 <= x /\\ x <= 2 /\\ 0 <= y /\\ y <= 1 /\\ 0 <= z /\\ z <= 2)"
        in
        List.iter
          (fun (name, r) ->
            let plan, _, _ = volume_plan r in
            let root = plan.Plan.root in
            Alcotest.(check string) (name ^ " root") "union" (Plan.op_name root.Plan.op);
            Alcotest.(check bool) (name ^ " exact") true (Plan.is_exact root);
            Alcotest.(check (float 0.0)) (name ^ " per_volume") 0.0 (Plan.work root.Plan.per_volume);
            Alcotest.(check (float 0.0)) (name ^ " volume-task work") 0.0 plan.Plan.total_work;
            Alcotest.(check bool) (name ^ " tree") true
              (has "union #0 dim=" (Plan.to_text_tree plan) && has " volume=exact [" (Plan.to_text_tree plan));
            match Plan.of_json (J.parse (Plan.to_json plan)) with
            | Error e -> Alcotest.failf "round trip: %s" e
            | Ok q -> Alcotest.(check bool) (name ^ " json") true (Plan.is_exact q.Plan.root))
          [ ("Fig. 1", xy fig1); ("3-D", boxes3) ];
        (* Predicted on the Cost side directly: 3 and 4 constraints. *)
        Alcotest.(check bool) "Cost rule" true
          (Cost.exact_union_pays ~dim:2 ~constraints:[ 3; 4 ] ~sampled_work:(5916.0 *. 60.0)));
    t "cost rule: a d = 8 union and a union past the tuple guard stay sampled" (fun () ->
        let b8 = leaf_of ~dim:8 (body 8) in
        let u8 = Plan.union_ ~exact_when_cheap:true ~eps:0.2 ~delta:0.1 [ b8; b8 ] in
        Alcotest.(check bool) "d = 8" false (Plan.is_exact u8);
        Alcotest.(check bool) "d = 8 predicts its acceptance loop" true
          (Plan.work u8.Plan.per_volume > 0.0);
        let cheap () = leaf_of ~dim:2 (xy "x >= 0 /\\ y >= 0 /\\ x + y <= 1") in
        let many = Plan.union_ ~exact_when_cheap:true ~eps:0.2 ~delta:0.1 (List.init 17 (fun _ -> cheap ())) in
        Alcotest.(check bool) "17 tuples" false (Plan.is_exact many);
        Alcotest.(check bool) "17 tuples at any price" false
          (Cost.exact_union_pays ~dim:2 ~constraints:(List.init 17 (fun _ -> 3))
             ~sampled_work:Float.infinity);
        Alcotest.(check bool) "16 tuples at any price" true
          (Cost.exact_union_pays ~dim:2 ~constraints:(List.init 16 (fun _ -> 3))
             ~sampled_work:Float.infinity);
        Alcotest.(check int) "the guard is Volume_exact's"
          Scdb_polytope.Volume_exact.default_max_tuples Cost.max_exact_tuples;
        Alcotest.(check bool) "unknown size" false
          (Cost.exact_union_pays ~dim:2 ~constraints:[ 3; 0 ] ~sampled_work:Float.infinity);
        let pair () = [ cheap (); cheap () ] in
        Alcotest.(check bool) "opt-out" false
          (Plan.is_exact (Plan.union_ ~exact_when_cheap:false ~eps:0.2 ~delta:0.1 (pair ())));
        Alcotest.(check bool) "default is sampled" false
          (Plan.is_exact (Plan.union_ ~eps:0.2 ~delta:0.1 (pair ())));
        Alcotest.(check bool) "a grid child" false
          (Plan.is_exact
             (Plan.union_ ~exact_when_cheap:true ~eps:0.2 ~delta:0.1
                [ cheap (); Plan.grid_leaf ~dim:2 ~cells:100.0 ])));
    t "exact union volume is Volume_exact's and draws nothing" (fun () ->
        List.iter
          (fun (name, formula) ->
            let r = xy formula in
            let plan, obs, rng = volume_plan r in
            Alcotest.(check bool) (name ^ " exact") true (Plan.is_exact plan.Plan.root);
            let before = Rng.copy rng and draws = Rng.draw_count rng in
            let v = Observable.volume obs rng ~eps:0.2 ~delta:0.1 in
            Alcotest.(check (float 0.0)) name (Rational.to_float (VE.volume_relation r)) v;
            Alcotest.(check int) (name ^ ": no draws") draws (Rng.draw_count rng);
            Alcotest.(check (float 0.0)) (name ^ ": rng state") (Rng.float before) (Rng.float rng))
          [
            ("disjoint", fig1);
            ("overlapping", "(0 <= x /\\ x <= 2 /\\ 0 <= y /\\ y <= 1) \\/ (1 <= x /\\ x <= 3 /\\ 0 <= y /\\ y <= 2)");
            ( "duplicate tuples",
              "(x > 0 /\\ y > 0 /\\ x + y < 1) \\/ (x >= 0 /\\ y >= 0 /\\ x + y <= 1) \\/ (2 <= x /\\ x <= 3 /\\ 0 <= y /\\ y <= 1)" );
            ("touching", "(0 <= x /\\ x <= 1 /\\ 0 <= y /\\ y <= 1) \\/ (1 <= x /\\ x <= 2 /\\ 0 <= y /\\ y <= 1)");
          ]);
    ts "interp, vm and vm-opt reports give the same exact volume" (fun () ->
        List.iter
          (fun engine ->
            match Scdb_gis.Report.generate ~engine ~samples:20 ~vars:[ "x"; "y" ] ~formula:fig1 ~seed:5 () with
            | Error e -> Alcotest.failf "%s report: %s" engine e
            | Ok r ->
                let volume = J.member "volume" (J.parse r.Scdb_gis.Report.json) in
                Alcotest.(check (option (float 0.0))) engine (Some 1.5) (Option.bind volume J.to_float);
                Alcotest.(check int) (engine ^ ": acceptance trials") 0 (counter "union.volume.trials"))
          [ "interp"; "vm"; "vm-opt" ]);
    ts "a sampled union keeps its Karp-Luby acceptance loop" (fun () ->
        with_telemetry @@ fun () ->
        let plan, obs, rng = volume_plan ~exact_when_cheap:false ~seed:7 (xy fig1) in
        Alcotest.(check bool) "sampled" false (Plan.is_exact plan.Plan.root);
        let draws = Rng.draw_count rng in
        let v = Observable.volume obs rng ~eps:0.2 ~delta:0.1 in
        Alcotest.(check bool) (Printf.sprintf "%g within eps of 1.5" v) true (Float.abs (v -. 1.5) <= 0.3);
        Alcotest.(check bool) "acceptance trials ran" true (counter "union.volume.trials" > 0);
        Alcotest.(check bool) "draws" true (Rng.draw_count rng > draws));
  ]

let suites =
  [
    ("plan.exact_leaves", exact_tests);
    ("plan.exact_unions", union_tests);
    ("plan.budget_equality", equality_tests);
    ("plan.monotonicity", monotonicity_tests);
    ("plan.json", json_tests);
  ]
