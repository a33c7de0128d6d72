(* Tests for the engine names over the one interpreter: [vm] draws the
   interpreter's stream (same rng stream, same sample stream), [vm-opt]
   is the interpreter on the rewritten plan, the [Vm] entry point
   refuses what it cannot execute, and committed flight records replay
   under every name they were recorded with. *)

open Scdb_core
module P = Scdb_polytope.Polytope
module Rng = Scdb_rng.Rng
module Plan = Scdb_plan.Plan
module Vm = Scdb_vm.Vm
module Flight = Scdb_gis.Flight
module Plan_exec = Scdb_gis.Plan_exec
module Plan_build = Scdb_gis.Plan_build
module Flightrec = Scdb_log.Flightrec

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f

let cfg = Convex_obs.practical_config

let check_streams what expected actual =
  match Flightrec.compare_samples ~recorded:expected ~replayed:actual with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%s: %s" what m

(* Disjoint boxes on a deterministic pseudo-random layout: box i sits at
   x ∈ [3i, 3i + w] with w, h drawn from a seeded rng, so K ∈ {1,4,16}
   exercises one-leaf collapse, small unions and wide dispatch tables. *)
let boxes_formula rng k =
  String.concat " \\/ "
    (List.init k (fun i ->
         let x0 = 3.0 *. float_of_int i in
         let w = 0.5 +. Rng.uniform rng 0.0 1.5 in
         let h = 0.5 +. Rng.uniform rng 0.0 1.5 in
         Printf.sprintf "(x >= %g /\\ x <= %g /\\ y >= 0 /\\ y <= %g)" x0 (x0 +. w) h))

let flight_args ?(engine = "interp") ?(n = 4) ~seed formula =
  {
    Flight.vars = [ "x"; "y" ];
    formula;
    n;
    seed;
    eps = 0.2;
    delta = 0.1;
    method_ = "walk";
    engine;
  }

let run_ok a =
  match Flight.run a with
  | Ok o -> o
  | Error m -> Alcotest.failf "Flight.run (%s) failed: %s" a.Flight.engine m

let read_fixture name =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) (Filename.concat "fixtures" name)
  in
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  match Flightrec.of_json text with
  | Ok r -> r
  | Error m -> Alcotest.failf "fixture %s did not parse: %s" name m

let box2 x0 x1 y0 y1 =
  P.box [| x0; y0 |] [| x1; y1 |]

(* [vm] is another name for the interpreter on the plan as built: under
   each sampler it must execute the same plan as [interp] and draw the
   same first points from the same seed.  The streams themselves are
   pinned by replaying the committed flight records (fixture_tests). *)
let same_engine_case ?(sampler = Convex_obs.Hit_and_run) ~seed formula =
  let relation =
    Relation.of_formula ~dim:2 (Scdb_constr.Parser.parse ~vars:[ "x"; "y" ] formula)
  in
  let config = { cfg with Convex_obs.sampler } in
  let run engine =
    let rng = Rng.create seed in
    match
      Plan_exec.engine_of_relation ~config ~engine ~gamma:0.05 ~eps:0.2 ~delta:0.1
        ~task:(Plan.Sample 2) rng relation
    with
    | Ok prog -> (Plan.to_json (Vm.plan prog), Vm.sample_many prog rng ~n:2, Rng.draw_count rng)
    | Error m -> Alcotest.failf "%s: %s" engine m
  in
  let plan_i, pts_i, draws_i = run "interp" and plan_v, pts_v, draws_v = run "vm" in
  Alcotest.(check string) (formula ^ ": same plan") plan_i plan_v;
  check_streams (formula ^ ": first points") pts_i pts_v;
  Alcotest.(check int) (formula ^ ": draw counts") draws_i draws_v

let mirror_tests =
  [
    t "union plans: vm mirrors the interpreter bit-for-bit (K = 1, 4, 16)" (fun () ->
        List.iter
          (fun k -> same_engine_case ~seed:(40 + k) (boxes_formula (Rng.create (1000 + k)) k))
          [ 1; 4; 16 ]);
    t "grid-method union mirrors the interpreter" (fun () ->
        same_engine_case ~sampler:Convex_obs.Grid_walk ~seed:5 (boxes_formula (Rng.create 77) 3));
    t "rejection-method union mirrors the interpreter" (fun () ->
        same_engine_case ~sampler:Convex_obs.Rejection_box ~seed:6
          (boxes_formula (Rng.create 78) 2));
  ]

(* vm-opt is the interpreter on the rewritten plan: the same seed builds
   the same plan and pieces twice; one copy runs [Plan_obs.rewrite] and
   the interpreter by hand, the other [Vm.compile ~optimize:true].
   [expect] names a rewrite the plan must carry. *)
let oracle_case ~seed ~n ~expect formula =
  let relation =
    Relation.of_formula ~dim:2 (Scdb_constr.Parser.parse ~vars:[ "x"; "y" ] formula)
  in
  let gamma = 0.05 and eps = 0.2 and delta = 0.1 in
  let build rng =
    match
      Plan_build.of_relation ~config:cfg ~gamma ~eps ~delta ~task:(Plan.Sample n) rng relation
    with
    | Some built -> built
    | None -> Alcotest.failf "%s: relation should be compilable" formula
  in
  let rng_i = Rng.create seed in
  let plan, pieces = build rng_i in
  let plan = Plan_obs.rewrite plan pieces in
  let rewrites = ref [] in
  Plan.iter_nodes (fun n -> rewrites := Plan.rewrite_tag n.Plan.rewrite :: !rewrites) plan;
  Alcotest.(check bool) (formula ^ ": rewrite fired") true (List.mem (Some expect) !rewrites);
  let obs = (Plan_obs.observables plan pieces).(plan.Plan.root.Plan.id) in
  let pts_i = Observable.sample_many obs rng_i (Params.make ~gamma ~eps ~delta ()) ~n in
  let rng_v = Rng.create seed in
  let plan, pieces = build rng_v in
  let prog =
    match Vm.compile ~optimize:true ~plan ~pieces () with
    | Ok p -> p
    | Error m -> Alcotest.failf "%s: compile failed: %s" formula m
  in
  let pts_v = Vm.sample_many prog rng_v ~n in
  check_streams (formula ^ ": streams") pts_i pts_v;
  Alcotest.(check int) (formula ^ ": draw counts") (Rng.draw_count rng_i) (Rng.draw_count rng_v)

let opt_tests =
  [
    ts "interp on the rewritten plan equals vm-opt bit-for-bit" (fun () ->
        oracle_case ~seed:42 ~n:20 ~expect:"rejection_box_substituted"
          "(x >= 0 /\\ y >= 0 /\\ x + y <= 1) \\/ (2 <= x /\\ x <= 3 /\\ 0 <= y /\\ y <= 1)";
        oracle_case ~seed:43 ~n:20 ~expect:"shared_union_leaf"
          "(x > 0 /\\ y > 0 /\\ x + y < 1) \\/ (x >= 0 /\\ y >= 0 /\\ x + y <= 1) \\/ (2 <= x \
           /\\ x <= 3 /\\ 0 <= y /\\ y <= 1)";
        List.iter
          (fun k ->
            oracle_case ~seed:(70 + k) ~n:5 ~expect:"rejection_box_substituted"
              (boxes_formula (Rng.create (2000 + k)) k))
          [ 1; 4; 16 ]);
    ts "vm-opt is deterministic and stays inside the relation" (fun () ->
        let formula = boxes_formula (Rng.create 79) 4 in
        let a = flight_args ~engine:"vm-opt" ~seed:8 ~n:12 formula in
        let o1 = run_ok a and o2 = run_ok a in
        check_streams "same seed, same stream" o1.Flight.points o2.Flight.points;
        List.iter
          (fun x ->
            Alcotest.(check bool) "member" true
              (Relation.mem_float ~slack:1e-6 o1.Flight.relation x))
          o1.Flight.points;
        Alcotest.(check int) "count" 12 (List.length o1.Flight.points));
    t "vm-opt swaps cheap low-dimensional leaves to rejection-box" (fun () ->
        let relation = Relation.of_formula ~dim:2
            (Scdb_constr.Parser.parse ~vars:[ "x"; "y" ] "x >= 0 /\\ y >= 0 /\\ x + y <= 1")
        in
        let rewrites engine =
          match
            Plan_exec.engine_of_relation ~config:cfg ~engine ~gamma:0.05 ~eps:0.2 ~delta:0.1
              ~task:(Plan.Sample 4) (Rng.create 9) relation
          with
          | Ok prog ->
              let acc = ref [] in
              Plan.iter_nodes (fun n -> acc := n.Plan.rewrite :: !acc) (Vm.plan prog);
              !acc
          | Error m -> Alcotest.failf "%s: %s" engine m
        in
        Alcotest.(check bool) "vm-opt executes a rejection-box leaf" true
          (List.mem Plan.Rejection_box (rewrites "vm-opt"));
        Alcotest.(check bool) "vm executes the plan as built" true
          (List.for_all (( = ) Plan.Kept) (rewrites "vm")));
  ]

let compile_tests =
  [
    t "piece-count mismatch is refused" (fun () ->
        let rng = Rng.create 10 in
        let prep = Option.get (Convex_obs.prepare ~config:cfg rng (box2 0.0 1.0 0.0 1.0)) in
        let plan =
          Plan.finalize ~gamma:0.05 ~eps:0.2 ~delta:0.1 ~task:(Plan.Sample 1)
            (Plan.dfk ~eps:0.2 ~delta:0.1 ~dim:2 ~method_:"walk" ~volume_budget:2000 ())
        in
        match Vm.compile ~plan ~pieces:[| prep; prep |] () with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected a piece-count error");
    t "volume tasks are refused" (fun () ->
        let rng = Rng.create 11 in
        let prep = Option.get (Convex_obs.prepare ~config:cfg rng (box2 0.0 1.0 0.0 1.0)) in
        let plan =
          Plan.finalize ~gamma:0.05 ~eps:0.2 ~delta:0.1 ~task:Plan.Volume
            (Plan.dfk ~eps:0.2 ~delta:0.1 ~dim:2 ~method_:"walk" ~volume_budget:2000 ())
        in
        match Vm.compile ~plan ~pieces:[| prep |] () with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected a task error");
    t "grid plans are refused: the interpreter has no grid node" (fun () ->
        let plan =
          Plan.finalize ~gamma:0.05 ~eps:0.2 ~delta:0.1 ~task:(Plan.Sample 1)
            (Plan.grid_leaf ~dim:2 ~cells:16.0)
        in
        match Vm.compile ~plan ~pieces:[||] () with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected an unsupported-operator error");
  ]

let fixture_tests =
  [
    ts "pre-batching fixture replays through the vm engine" (fun () ->
        let r = read_fixture "incremental_k1.flightrec.json" in
        (match Flight.replay ~engine:"vm" r with
        | Ok n -> Alcotest.(check int) "samples reproduced" 6 n
        | Error m -> Alcotest.failf "vm replay diverged: %s" m);
        Rng.Provenance.set_tracking false);
    ts "union fixture replays through both engines" (fun () ->
        let r = read_fixture "union_k3.flightrec.json" in
        (match Flight.replay r with
        | Ok n -> Alcotest.(check int) "interp samples" 6 n
        | Error m -> Alcotest.failf "interp replay diverged: %s" m);
        (match Flight.replay ~engine:"vm" r with
        | Ok n -> Alcotest.(check int) "vm samples" 6 n
        | Error m -> Alcotest.failf "vm replay diverged: %s" m);
        (* Recorded under vm-opt with both rewrites firing (rejection-box
           and a shared strict/non-strict duplicate leaf). *)
        let r = read_fixture "union_dup_vmopt.flightrec.json" in
        (match Flight.replay r with
        | Ok n -> Alcotest.(check int) "vm-opt samples" 6 n
        | Error m -> Alcotest.failf "vm-opt replay diverged: %s" m);
        Rng.Provenance.set_tracking false);
  ]

(* Exact leaf weights (Theorem 3.1 R2): on the Fig. 1 union both leaves
   are cheap Lasserre bodies, so the weight prologue reads the exact
   volumes 1/2 and 1 and draws nothing, on the plan as built and on its
   rewrite. *)
let fig1_union =
  Relation.of_formula ~dim:2
    (Scdb_constr.Parser.parse ~vars:[ "x"; "y" ]
       "(x >= 0 /\\ y >= 0 /\\ x + y <= 1) \\/ (x >= 2 /\\ x <= 3 /\\ y >= 0 /\\ y <= 1)")

let sorted_weights w = List.sort compare (Array.to_list w)

let exact_tests =
  [
    t "Fig. 1 weight prologue reads exact volumes and draws nothing" (fun () ->
        let gamma = 0.05 and eps = 0.2 and delta = 0.1 in
        let build rng =
          match
            Plan_build.of_relation ~config:cfg ~gamma ~eps ~delta ~task:(Plan.Sample 10) rng
              fig1_union
          with
          | Some built -> built
          | None -> Alcotest.fail "Fig. 1 union should plan"
        in
        let rng = Rng.create 42 in
        let plan, pieces = build rng in
        let kids = plan.Plan.root.Plan.children in
        Alcotest.(check (list bool)) "both leaves exact" [ true; true ]
          (List.map Plan.is_exact kids);
        (* The Karp–Luby prologue: each child volume at (ε/3, δ/4m), as
           Union.sample asks for it. *)
        List.iter
          (fun (name, plan) ->
            let obs = Plan_obs.observables plan pieces in
            let before = Rng.draw_count rng in
            let w =
              Array.of_list
                (List.map
                   (fun (c : Plan.node) ->
                     Observable.volume obs.(c.Plan.id) ~gamma rng ~eps:(eps /. 3.0)
                       ~delta:(delta /. 8.0))
                   kids)
            in
            Alcotest.(check int) (name ^ " prologue draws") 0 (Rng.draw_count rng - before);
            Alcotest.(check (list (float 0.0))) (name ^ " weights") [ 0.5; 1.0 ]
              (sorted_weights w))
          [ ("vm", plan); ("vm-opt", Plan_obs.rewrite plan pieces) ]);
  ]

let suites =
  [
    ("vm.exact", exact_tests);
    ("vm.mirror", mirror_tests);
    ("vm.opt", opt_tests);
    ("vm.compile", compile_tests);
    ("vm.fixtures", fixture_tests);
  ]
