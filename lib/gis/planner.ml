module Cost = Scdb_plan.Cost

type strategy =
  | Use_exact
  | Use_grid of float
  | Use_sampling of { eps : float; delta : float }

type estimate = { strategy : strategy; predicted_cost : float; reason : string }

(* Crude statistics of the unfolded query. *)
let rec query_stats inst (q : Query.t) =
  (* returns (atoms, disjuncts, quantified) *)
  match q with
  | Query.Rel (name, _) ->
      let r = Instance.get_exn inst name in
      (Relation.size r, Stdlib.max 1 (List.length (Relation.tuples r)), 0)
  | Query.Constr _ -> (1, 1, 0)
  | Query.And qs ->
      List.fold_left
        (fun (a, d, k) q ->
          let a', d', k' = query_stats inst q in
          (a + a', d * Stdlib.max 1 d', k + k'))
        (0, 1, 0) qs
  | Query.Or qs ->
      List.fold_left
        (fun (a, d, k) q ->
          let a', d', k' = query_stats inst q in
          (a + a', d + d', k + k'))
        (0, 0, 0) qs
  | Query.Not q -> query_stats inst q
  | Query.Exists (vs, q) ->
      let a, d, k = query_stats inst q in
      (a, d, k + List.length vs)

let cap = 1e18

let cost_exact inst ~free_dim q =
  let atoms, disjuncts, quantified = query_stats inst q in
  let m = float_of_int (Stdlib.max 2 atoms) in
  (* Fourier–Motzkin: m^(2^k) constraints in the worst case. *)
  let fm = Float.min cap (m ** Float.min 60.0 (2.0 ** float_of_int quantified)) in
  (* Lasserre per tuple, in the plan's walk-step units; inclusion–exclusion:
     2^tuples volume calls. *)
  let lasserre =
    Float.min cap (Cost.lasserre_work ~dim:free_dim ~constraints:(Stdlib.max 2 atoms))
  in
  let ie = Float.min cap (2.0 ** float_of_int (Stdlib.min 40 disjuncts)) in
  Float.min cap (fm +. (ie *. lasserre))

let cost_grid ~free_dim ~extent_cells =
  Float.min cap (float_of_int extent_cells ** float_of_int free_dim)

let cost_sampling ~free_dim ~pieces ~eps ~delta =
  (* per piece: rounding + phases(q = O(d log d)) x Chernoff samples x walk steps *)
  let phases = Float.max 1.0 (float_of_int free_dim *. 2.0) in
  let samples =
    float_of_int (Cost.samples_for_ratio ~eps ~delta ~p_lower:0.5) *. phases *. phases
  in
  let steps = float_of_int (Cost.hit_and_run_steps ~dim:free_dim) in
  float_of_int (Stdlib.max 1 pieces) *. phases *. samples *. steps

let plan ?(eps = 0.25) ?(delta = 0.25) inst ~free_dim q =
  let _, disjuncts, quantified = query_stats inst q in
  let exact_cost = cost_exact inst ~free_dim q in
  let grid_gamma = 0.05 in
  let grid_cost = cost_grid ~free_dim ~extent_cells:(int_of_float (1.0 /. grid_gamma)) in
  let sampling_cost = cost_sampling ~free_dim ~pieces:disjuncts ~eps ~delta in
  (* The grid needs a quantifier-free symbolic result first, so its real
     cost includes the FM part of the exact route. *)
  let grid_total = grid_cost +. Float.min cap (exact_cost /. 2.0) in
  if exact_cost <= Float.min grid_total sampling_cost then
    {
      strategy = Use_exact;
      predicted_cost = exact_cost;
      reason =
        Printf.sprintf "small symbolic result (k=%d quantified, %d disjuncts)" quantified disjuncts;
    }
  else if grid_total <= sampling_cost then
    {
      strategy = Use_grid grid_gamma;
      predicted_cost = grid_total;
      reason = Printf.sprintf "low dimension %d favours the γ-grid" free_dim;
    }
  else
    {
      strategy = Use_sampling { eps; delta };
      predicted_cost = sampling_cost;
      reason =
        Printf.sprintf "dimension %d / %d quantified vars favour sampling" free_dim quantified;
    }

let run ?eps ?delta ?config rng inst ~free_dim q =
  let est = plan ?eps ?delta inst ~free_dim q in
  let mode =
    match est.strategy with
    | Use_exact -> Aggregate.Exact
    | Use_grid g -> Aggregate.Grid g
    | Use_sampling { eps; delta } -> Aggregate.Sampling { eps; delta }
  in
  Result.map (fun v -> (v, est)) (Aggregate.volume ?config rng inst ~free_dim mode q)
