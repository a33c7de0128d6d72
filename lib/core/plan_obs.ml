module Plan = Scdb_plan.Plan
module Cost = Scdb_plan.Cost
module Progress = Scdb_progress.Progress
module Tel = Scdb_telemetry.Telemetry
module Trace = Scdb_trace.Trace

let tel_exact = Tel.Counter.make "volume.exact"

let is_leaf (n : Plan.node) = match n.Plan.op with Plan.Dfk _ | Plan.Guard -> true | _ -> false

(* The prepared piece of every leaf, by node id (preorder leaf order). *)
let pieces_by_id (plan : Plan.t) (pieces : Convex_obs.prepared array) =
  let by_id = Array.make plan.Plan.node_count None in
  let next = ref 0 in
  Plan.iter_nodes
    (fun n ->
      if is_leaf n then begin
        if !next < Array.length pieces then by_id.(n.Plan.id) <- Some pieces.(!next);
        incr next
      end)
    plan;
  if !next <> Array.length pieces then
    invalid_arg
      (Printf.sprintf "Plan_obs: plan has %d leaves, %d pieces prepared" !next
         (Array.length pieces));
  by_id

let same_body (a : Convex_obs.prepared) (b : Convex_obs.prepared) =
  a.Convex_obs.p_dim = b.Convex_obs.p_dim
  && a.Convex_obs.p_original.Polytope.flat = b.Convex_obs.p_original.Polytope.flat
  && a.Convex_obs.p_original.Polytope.b = b.Convex_obs.p_original.Polytope.b
  && a.Convex_obs.p_config = b.Convex_obs.p_config

let rejection_pays (p : Convex_obs.prepared) =
  let cfg = p.Convex_obs.p_config and dim = p.Convex_obs.p_dim in
  let steps =
    match cfg.Convex_obs.walk_steps with
    | Some s -> s
    | None -> Hit_and_run.default_steps ~dim
  in
  cfg.Convex_obs.sampler = Convex_obs.Hit_and_run
  && Cost.rejection_box_trials ~dim <= steps
  && Polytope.bounding_box p.Convex_obs.p_body <> None

let rewrite (plan : Plan.t) pieces =
  let piece = pieces_by_id plan pieces in
  let leaf (n : Plan.node) =
    match (n.Plan.op, piece.(n.Plan.id)) with
    | Plan.Dfk _, Some p when rejection_pays p -> { n with Plan.rewrite = Plan.Rejection_box }
    | _ -> n
  in
  let is_dfk (n : Plan.node) = match n.Plan.op with Plan.Dfk _ -> true | _ -> false in
  let body (n : Plan.node) = Option.get piece.(n.Plan.id) in
  let rec go (n : Plan.node) =
    match n.Plan.op with
    | Plan.Union_op _ ->
        (* A leaf shares the first earlier sibling leaf over the same
           body (preorder ids: earlier siblings have smaller ids), which
           is itself unshared. *)
        let share (c : Plan.node) =
          match
            List.find_opt
              (fun (e : Plan.node) ->
                e.Plan.id < c.Plan.id && is_dfk e && same_body (body e) (body c))
              n.Plan.children
          with
          | Some e -> { c with Plan.rewrite = Plan.Shared e.Plan.id }
          | None -> leaf c
        in
        let children = List.map (fun c -> if is_dfk c then share c else go c) n.Plan.children in
        { n with Plan.children }
    | Plan.Dfk _ -> leaf n
    | _ -> { n with Plan.children = List.map go n.Plan.children }
  in
  { plan with Plan.root = go plan.Plan.root }

let tag id (obs : Observable.t) =
  {
    obs with
    Observable.sample =
      (fun rng params -> Progress.with_node id (fun () -> obs.Observable.sample rng params));
    volume =
      (fun rng ~gamma ~eps ~delta ->
        Progress.with_node id (fun () -> obs.Observable.volume rng ~gamma ~eps ~delta));
  }

(* Theorem 3.1 (R2): the exact volume of the node's relation (a leaf's
   one tuple, or inclusion–exclusion over a union's leaf tuples),
   computed on first use and reused for every (γ,ε,δ).  It draws
   nothing, so no executor's rng stream depends on when it runs. *)
let with_exact_volume (o : Observable.t) =
  let r =
    match o.Observable.relation with
    | Some r -> r
    | None -> invalid_arg "Plan_obs: an exact node needs its relation"
  in
  let v =
    lazy
      ( Trace.span "volume.exact" @@ fun () ->
        Tel.Counter.incr tel_exact;
        match Volume_exact.volume_relation_opt r with
        | Some q -> Rational.to_float q
        | None -> raise (Observable.Estimation_failed "no exact volume: unbounded or too many tuples") )
  in
  { o with Observable.volume = (fun _ ~gamma:_ ~eps:_ ~delta:_ -> Lazy.force v) }

let observables (plan : Plan.t) pieces =
  let piece = pieces_by_id plan pieces in
  let shared = Hashtbl.create 4 in
  Plan.iter_nodes
    (fun n -> match n.Plan.rewrite with Plan.Shared k -> Hashtbl.replace shared k None | _ -> ())
    plan;
  let obs = Array.make plan.Plan.node_count None in
  let rec build (n : Plan.node) =
    let o =
      match (n.Plan.op, n.Plan.rewrite) with
      | (Plan.Dfk _ | Plan.Guard), Plan.Shared k -> Option.get (Hashtbl.find shared k)
      | (Plan.Dfk _ | Plan.Guard), r ->
          let p = Option.get piece.(n.Plan.id) in
          let p =
            if r = Plan.Rejection_box then Convex_obs.with_sampler Convex_obs.Rejection_box p
            else p
          in
          let o = Convex_obs.observe p in
          let o = if Plan.is_exact n then with_exact_volume o else o in
          if Hashtbl.mem shared n.Plan.id then begin
            (* Its sharers read the weight this leaf estimates. *)
            let o = Observable.with_cached_volume o in
            Hashtbl.replace shared n.Plan.id (Some o);
            o
          end
          else o
      | Plan.Union_op _, _ ->
          let o = Union.union (List.map build n.Plan.children) in
          if Plan.is_exact n then with_exact_volume o else o
      | Plan.Inter_op { poly_degree; _ }, _ ->
          Inter.inter ~poly_degree (List.map build n.Plan.children)
      | Plan.Diff_op { poly_degree; _ }, _ -> (
          match n.Plan.children with
          | [ a; b ] ->
              let a = build a in
              Diff.diff ~poly_degree a (build b)
          | _ -> invalid_arg "Plan_obs: a difference has exactly two children")
      | op, _ -> invalid_arg ("Plan_obs: no interpreter for plan operator " ^ Plan.op_name op)
    in
    let o = tag n.Plan.id o in
    obs.(n.Plan.id) <- Some o;
    o
  in
  ignore (build plan.Plan.root);
  Array.map Option.get obs
