module Plan = Scdb_plan.Plan
module Volume = Scdb_sampling.Volume

let method_name (c : Convex_obs.config) =
  match c.Convex_obs.sampler with
  | Convex_obs.Grid_walk -> "grid"
  | Convex_obs.Hit_and_run -> "walk"
  | Convex_obs.Rejection_box -> "rejection"

let volume_budget_of (c : Convex_obs.config) =
  match c.Convex_obs.volume_budget with
  | Volume.Practical n -> Some n
  | Volume.Rigorous -> None

let leaf_node ?(config = Convex_obs.practical_config) ?(exact_when_cheap = true) ~eps ~delta
    ~dim tuple =
  Plan.dfk ~eps ~delta ~dim ~method_:(method_name config)
    ~constraints:(List.length tuple)
    ?volume_budget:(volume_budget_of config) ~exact_when_cheap ()

let of_relation ?(config = Convex_obs.practical_config) ?(exact_when_cheap = true) ~gamma ~eps
    ~delta ~task rng r =
  let dim = Relation.dim r in
  let pieces =
    List.filter_map
      (fun tuple ->
        Option.map
          (fun prep -> (tuple, prep))
          (Convex_obs.prepare_relation ~config rng (Relation.make ~dim [ tuple ])))
      (Relation.tuples r)
  in
  let root =
    match pieces with
    | [] -> None
    | [ (tuple, _) ] -> Some (leaf_node ~config ~exact_when_cheap ~eps ~delta ~dim tuple)
    | many ->
        (* Children are costed at the sub-call parameters the union
           threads down: ε/3 generators, δ/(4m) setup volumes. *)
        let m = List.length many in
        let sub_eps = eps /. 3.0 and sub_delta = delta /. float_of_int (4 * m) in
        let leaf (tuple, _) =
          leaf_node ~config ~exact_when_cheap ~eps:sub_eps ~delta:sub_delta ~dim tuple
        in
        Some (Plan.union_ ~exact_when_cheap ~eps ~delta (List.map leaf many))
  in
  Option.map
    (fun root ->
      (Plan.finalize ~gamma ~eps ~delta ~task root, Array.of_list (List.map snd pieces)))
    root
