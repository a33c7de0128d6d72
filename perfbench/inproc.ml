(* The in-process pass: each query composed from the library's public
   calls, in the order bin/spatialdb.exe and Report.generate make them,
   with one benchmark span around each call into a layer.  Telemetry
   counters are read at the same boundaries. *)

module Tel = Scdb_telemetry.Telemetry
module Trace = Scdb_trace.Trace
module Plan = Scdb_plan.Plan
module Vm = Scdb_vm.Vm
module FM = Scdb_qe.Fourier_motzkin
module Polytope = Scdb_polytope.Polytope
open Scdb_constr
open Scdb_core
module Rng = Scdb_rng.Rng

(* The CLI's fixed parameters (bin/spatialdb.ml defaults). *)
let gamma = Scdb_gis.Flight.gamma
let eps = 0.2
let delta = 0.1
let config = Convex_obs.practical_config

let counter_names =
  [|
    "hit_and_run.steps";
    "union.samples";
    "union.trials";
    "rejection.accepted";
    "rejection.attempts";
    "vm.steps";
    "vm.trials";
    "vm.draws";
    "volume.samples";
    "volume.estimates";
    "simplex.pivots";
  |]

let counter name =
  let rec find i = if counter_names.(i) = name then i else find (i + 1) in
  find 0

(* A counter snapshot, with the root generator's draws and the minor
   heap words appended. *)
let snap rng =
  Array.append
    (Array.map
       (fun n -> float_of_int (Option.value ~default:0 (Tel.counter_value n)))
       counter_names)
    [| float_of_int (Rng.draw_count rng); Gc.minor_words () |]

let rng_draws = Array.length counter_names
let minor_words = rng_draws + 1
let diff a b = Array.map2 (fun x y -> y -. x) a b

type outcome = {
  points : float array list;
  volume : float option;  (** report queries only *)
  prologue : float array;  (** counter deltas over the first draw *)
  steady : float array;  (** ... over the remaining n-1 draws *)
  whole : float array;  (** ... over the whole query *)
}

exception Failed of string

(* Mirror of Plan_exec.compiled_of_relation, split so preparation and
   Vm.compile are timed apart. *)
let prepare_compiled ~task rng relation =
  let dim = Relation.dim relation in
  let pieces =
    List.filter_map
      (fun tuple ->
        Option.map
          (fun prep -> (tuple, prep))
          (Convex_obs.prepare_relation ~config rng (Relation.make ~dim [ tuple ])))
      (Relation.tuples relation)
  in
  match pieces with
  | [] -> raise (Failed "relation is empty, unbounded or lower-dimensional")
  | [ (tuple, prep) ] ->
      let node = Scdb_gis.Plan_build.leaf_node ~config ~eps ~delta ~dim tuple in
      (Plan.finalize ~gamma ~eps ~delta ~task node, [| prep |])
  | many ->
      let m = List.length many in
      let sub_eps = eps /. 3.0 and sub_delta = delta /. float_of_int (4 * m) in
      let leaves =
        List.map
          (fun (tuple, _) ->
            Scdb_gis.Plan_build.leaf_node ~config ~eps:sub_eps ~delta:sub_delta ~dim tuple)
          many
      in
      ( Plan.finalize ~gamma ~eps ~delta ~task (Plan.union_ ~eps ~delta leaves),
        Array.of_list (List.map snd many) )

let run ~qid (q : Workloads.query) =
  let sp name f = Spans.span ~query:qid name f in
  let dim = List.length q.vars in
  let body () =
    let f = sp "constr.parse" (fun () -> Parser.parse ~vars:q.vars q.formula) in
    let f = if Formula.is_quantifier_free f then f else sp "qe.eliminate" (fun () -> FM.eliminate f) in
    let relation = sp "constr.parse" (fun () -> Relation.of_formula ~dim f) in
    let rng = Rng.create q.seed in
    let s0 = snap rng in
    let draws ~first ~rest ~steady n =
      let p0 = sp "core.first_draw" first in
      let s1 = snap rng in
      let ps = sp steady (fun () -> rest (n - 1)) in
      (p0 :: ps, s1, snap rng)
    in
    let interp ~task =
      match
        sp "gis.build" (fun () ->
            Scdb_gis.Plan_exec.observable_of_relation ~config ~gamma ~eps ~delta ~task rng relation)
      with
      | None -> raise (Failed "relation is empty, unbounded or lower-dimensional")
      | Some (_, obs) -> obs
    in
    let points, s1, s2, volume =
      match q.kind with
      | Sample { n; engine = "interp" } ->
          let obs = interp ~task:(Plan.Sample n) in
          let params = Params.make ~gamma ~eps ~delta () in
          let pts, s1, s2 =
            draws n ~steady:"core.draw"
              ~first:(fun () -> Observable.sample_exn obs rng params)
              ~rest:(fun k -> Observable.sample_many obs rng params ~n:k)
          in
          (pts, s1, s2, None)
      | Sample { n; engine } -> (
          let plan, pieces = sp "gis.build" (fun () -> prepare_compiled ~task:(Plan.Sample n) rng relation) in
          match
            sp "vm.compile" (fun () -> Vm.compile ~optimize:(engine = "vm-opt") ~plan ~pieces ())
          with
          | Error m -> raise (Failed ("plan does not compile: " ^ m))
          | Ok prog ->
              let pts, s1, s2 =
                draws n ~steady:"vm.draw"
                  ~first:(fun () -> Vm.sample_one prog rng)
                  ~rest:(fun k -> Vm.sample_many prog rng ~n:k)
              in
              (pts, s1, s2, None))
      | Report { n } ->
          let obs = interp ~task:(Plan.Report n) in
          let params = Params.make ~gamma ~eps ~delta () in
          let pts, s1, s2 =
            draws n ~steady:"core.draw"
              ~first:(fun () -> Observable.sample_exn obs rng params)
              ~rest:(fun k -> Observable.sample_many obs rng params ~n:k)
          in
          let volume =
            sp "sampling.volume" (fun () ->
                match Observable.volume obs rng ~eps ~delta with
                | v -> Some v
                | exception Observable.Estimation_failed _ -> None)
          in
          sp "diag.run" (fun () ->
              match Relation.tuples relation with
              | tuple :: _ -> ignore (Diag_run.run rng (Polytope.of_tuple ~dim tuple))
              | [] -> ());
          (pts, s1, s2, volume)
    in
    { points; volume; prologue = diff s0 s1; steady = diff s1 s2; whole = diff s0 (snap rng) }
  in
  match sp "query" body with
  | o -> Ok o
  | exception Failed m -> Error m
  | exception Parser.Parse_error m -> Error ("parse error: " ^ m)
  | exception Lexer.Lex_error (m, _) -> Error ("lex error: " ^ m)
  | exception Observable.Estimation_failed m -> Error m

(* The CLI's point printer, for the fidelity comparison. *)
let render points =
  let b = Buffer.create (List.length points * 24) in
  List.iter
    (fun p ->
      Array.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b '\t';
          Buffer.add_string b (Printf.sprintf "%.6f" x))
        p;
      Buffer.add_char b '\n')
    points;
  Buffer.contents b

(* Report.generate itself, for its residual (trace, telemetry, JSON)
   and its span volume. *)
let report ~qid (q : Workloads.query) n =
  match
    Spans.span ~query:qid "gis.report" (fun () ->
        Scdb_gis.Report.generate ~eps ~delta ~samples:n ~vars:q.vars ~formula:q.formula
          ~seed:q.seed ())
  with
  | Error m -> Error m
  | Ok r -> Ok (r.Scdb_gis.Report.json, Trace.count ())
