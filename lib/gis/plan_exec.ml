module Plan = Scdb_plan.Plan
module Progress = Scdb_progress.Progress

let tag id (obs : Observable.t) =
  {
    obs with
    Observable.sample =
      (fun rng params -> Progress.with_node id (fun () -> obs.Observable.sample rng params));
    volume =
      (fun rng ~gamma ~eps ~delta ->
        Progress.with_node id (fun () -> obs.Observable.volume rng ~gamma ~eps ~delta));
  }

let observable_of_relation ?(config = Convex_obs.practical_config) ~gamma ~eps ~delta ~task
    rng r =
  let dim = Relation.dim r in
  let pieces =
    List.filter_map
      (fun tuple ->
        Option.map
          (fun obs -> (tuple, obs))
          (Convex_obs.make ~config rng (Relation.make ~dim [ tuple ])))
      (Relation.tuples r)
  in
  match pieces with
  | [] -> None
  | [ (tuple, obs) ] ->
      let node = Plan_build.leaf_node ~config ~eps ~delta ~dim tuple in
      let plan = Plan.finalize ~gamma ~eps ~delta ~task node in
      Some (plan, tag plan.Plan.root.Plan.id obs)
  | many ->
      let m = List.length many in
      let sub_eps = eps /. 3.0 and sub_delta = delta /. float_of_int (4 * m) in
      let leaves =
        List.map
          (fun (tuple, _) -> Plan_build.leaf_node ~config ~eps:sub_eps ~delta:sub_delta ~dim tuple)
          many
      in
      let plan = Plan.finalize ~gamma ~eps ~delta ~task (Plan.union_ ~eps ~delta leaves) in
      let wrapped =
        List.map2
          (fun child (_, obs) -> tag child.Plan.id obs)
          plan.Plan.root.Plan.children many
      in
      Some (plan, tag plan.Plan.root.Plan.id (Union.union wrapped))

(* Mirror of [observable_of_relation] for the compiled engine: same
   per-tuple preprocessing draws (prepare is the rng half of make), same
   plan, but the pieces feed the plan→kernel compiler instead of the
   interpreter.  Keeping the two in lockstep is what makes [--engine vm]
   replay interpreter-recorded flights bit-for-bit. *)
let compiled_of_relation ?(config = Convex_obs.practical_config) ?(optimize = false) ~gamma
    ~eps ~delta ~task rng r =
  let dim = Relation.dim r in
  let pieces =
    List.filter_map
      (fun tuple ->
        Option.map
          (fun prep -> (tuple, prep))
          (Convex_obs.prepare_relation ~config rng (Relation.make ~dim [ tuple ])))
      (Relation.tuples r)
  in
  match pieces with
  | [] -> None
  | [ (tuple, prep) ] ->
      let node = Plan_build.leaf_node ~config ~eps ~delta ~dim tuple in
      let plan = Plan.finalize ~gamma ~eps ~delta ~task node in
      Some (plan, Scdb_vm.Vm.compile ~optimize ~plan ~pieces:[| prep |] ())
  | many ->
      let m = List.length many in
      let sub_eps = eps /. 3.0 and sub_delta = delta /. float_of_int (4 * m) in
      let leaves =
        List.map
          (fun (tuple, _) -> Plan_build.leaf_node ~config ~eps:sub_eps ~delta:sub_delta ~dim tuple)
          many
      in
      let plan = Plan.finalize ~gamma ~eps ~delta ~task (Plan.union_ ~eps ~delta leaves) in
      let preps = Array.of_list (List.map snd many) in
      Some (plan, Scdb_vm.Vm.compile ~optimize ~plan ~pieces:preps ())

let arm ?overrun_factor plan =
  let rows =
    Array.map (fun (id, label, budget) -> (id, label, budget)) (Plan.budget_rows plan)
  in
  Progress.start ?overrun_factor ~rows ()

type attribution_row = {
  id : int;
  op : string;
  predicted : float;
  actual : float;
  ratio : float;  (** [actual/predicted]; [nan] when the node never ran *)
  tags : string list;  (** rewrite provenance under the optimized engine *)
}

let attribution ?program plan =
  let actuals = Progress.rows () in
  let tags_of =
    match program with
    | None -> fun _ -> []
    | Some prog ->
        let table = Scdb_vm.Vm.rewrite_tags prog in
        fun id -> Option.value (List.assoc_opt id table) ~default:[]
  in
  Array.map
    (fun (id, op, predicted) ->
      let actual =
        if id < Array.length actuals then Progress.row_work actuals.(id) else 0.0
      in
      let ratio =
        if actual <= 0.0 then Float.nan
        else if predicted > 0.0 then actual /. predicted
        else Float.infinity
      in
      { id; op; predicted; actual; ratio; tags = tags_of id })
    (Plan.budget_rows plan)

module Jo = Scdb_json.Json_out

let attribution_json rows =
  let row r =
    Printf.sprintf
      "    {\"id\": %d, \"op\": \"%s\", \"predicted\": %s, \"actual\": %s, \"ratio\": %s, \"tags\": [%s]}"
      r.id r.op (Jo.num r.predicted) (Jo.num r.actual) (Jo.num r.ratio)
      (String.concat ", " (List.map (fun t -> "\"" ^ Jo.escape t ^ "\"") r.tags))
  in
  "[\n" ^ String.concat ",\n" (List.map row (Array.to_list rows)) ^ "\n  ]"

type budget_row = {
  b_id : int;
  b_op : string;
  b_eps : float;
  b_delta : float;
  b_predicted : float;
  b_actual : float;
  b_ratio : float;
  b_delta_achieved : float;
  b_slack : float;
}

let budget_attribution plan (attr : attribution_row array) =
  let actuals = Hashtbl.create 16 in
  Array.iter (fun a -> Hashtbl.replace actuals a.id a) attr;
  Array.map
    (fun (g : Scdb_plan.Plan.budget_grant) ->
      let predicted, actual, ratio =
        match Hashtbl.find_opt actuals g.Scdb_plan.Plan.g_id with
        | Some a -> (a.predicted, a.actual, a.ratio)
        | None -> (Float.nan, Float.nan, Float.nan)
      in
      let achieved =
        if Float.is_nan g.Scdb_plan.Plan.g_delta then Float.nan
        else Scdb_plan.Cost.delta_at_work_ratio ~delta:g.Scdb_plan.Plan.g_delta ~ratio
      in
      {
        b_id = g.Scdb_plan.Plan.g_id;
        b_op = g.Scdb_plan.Plan.g_op;
        b_eps = g.Scdb_plan.Plan.g_eps;
        b_delta = g.Scdb_plan.Plan.g_delta;
        b_predicted = predicted;
        b_actual = actual;
        b_ratio = ratio;
        b_delta_achieved = achieved;
        b_slack = g.Scdb_plan.Plan.g_delta -. achieved;
      })
    (Scdb_plan.Plan.error_budget plan)

let budget_attribution_json rows =
  let row r =
    Printf.sprintf
      "    {\"id\": %d, \"op\": \"%s\", \"eps\": %s, \"delta\": %s, \"predicted\": %s, \
       \"actual\": %s, \"ratio\": %s, \"delta_achieved\": %s, \"slack\": %s}"
      r.b_id r.b_op (Jo.num r.b_eps) (Jo.num r.b_delta) (Jo.num r.b_predicted) (Jo.num r.b_actual)
      (Jo.num r.b_ratio) (Jo.num r.b_delta_achieved) (Jo.num r.b_slack)
  in
  "[\n" ^ String.concat ",\n" (List.map row (Array.to_list rows)) ^ "\n  ]"

let budget_attribution_text rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%4s  %-8s %10s %10s %8s %12s %12s\n" "id" "op" "eps" "delta" "ratio"
       "achieved" "slack");
  Array.iter
    (fun r ->
      let g v = if Float.is_nan v then "-" else Printf.sprintf "%.3g" v in
      Buffer.add_string buf
        (Printf.sprintf "%4d  %-8s %10s %10s %8s %12s %12s\n" r.b_id r.b_op (g r.b_eps)
           (g r.b_delta)
           (if Float.is_finite r.b_ratio then Printf.sprintf "%.2f" r.b_ratio else "-")
           (g r.b_delta_achieved) (g r.b_slack)))
    rows;
  Buffer.contents buf

let attribution_text rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%4s  %-8s %14s %14s %8s  %s\n" "id" "op" "predicted" "actual" "ratio"
       "rewrites");
  Array.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%4d  %-8s %14.3g %14.3g %8s  %s\n" r.id r.op r.predicted r.actual
           (if Float.is_finite r.ratio then Printf.sprintf "%.2f" r.ratio else "-")
           (match r.tags with [] -> "-" | tags -> String.concat "," tags)))
    rows;
  Buffer.contents buf
