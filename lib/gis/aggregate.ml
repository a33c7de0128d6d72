module Volume_exact = Scdb_polytope.Volume_exact
module Gridvol = Scdb_polytope.Gridvol

type mode =
  | Exact
  | Grid of float
  | Sampling of { eps : float; delta : float }

let relation_volume rng ?config mode r =
  match mode with
  | Exact -> (
      match Volume_exact.volume_relation_opt r with
      | Some v -> Ok (Rational.to_float v)
      | None ->
          Error (Printf.sprintf "unbounded, or over %d tuples" Volume_exact.default_max_tuples))
  | Grid gamma -> (
      match Gridvol.build ~gamma r with
      | Some g -> Ok (Gridvol.volume g)
      | None -> Error "empty or unbounded query result"
      | exception Invalid_argument m -> Error m)
  | Sampling { eps; delta } -> (
      match Eval.observable_of_relation ?config rng r with
      | Some o -> (
          match Observable.volume o rng ~eps ~delta with
          | v -> Ok v
          | exception Observable.Estimation_failed m -> Error m)
      | None -> Ok 0.0)

let volume ?config rng inst ~free_dim mode q =
  match mode with
  | Exact | Grid _ ->
      (* Exact modes need the symbolic result (fixed dimension). *)
      let r = Eval.symbolic inst ~free_dim q in
      relation_volume rng ?config mode r
  | Sampling { eps; delta } -> (
      match Eval.compile ?config rng inst ~free_dim q with
      | Error e -> Error e
      | Ok o -> (
          match Observable.volume o rng ~eps ~delta with
          | v -> Ok v
          | exception Observable.Estimation_failed m -> Error m))

let coverage ?config rng inst ~free_dim mode ~window q =
  if Relation.dim window <> free_dim then Error "window dimension mismatch"
  else begin
    match relation_volume rng ?config mode window with
    | Error e -> Error e
    | Ok wv when wv <= 0.0 -> Error "window has zero volume"
    | Ok wv -> (
        match mode with
        | Exact | Grid _ ->
            let r = Eval.symbolic inst ~free_dim q in
            let clipped = Relation.inter r window in
            Result.map (fun v -> v /. wv) (relation_volume rng ?config mode clipped)
        | Sampling { eps; delta } -> (
            match Eval.compile ?config rng inst ~free_dim q with
            | Error e -> Error e
            | Ok o -> (
                match Eval.observable_of_relation ?config rng window with
                | None -> Error "window is empty or unbounded"
                | Some w -> (
                    let clipped = Inter.inter2 o w in
                    match Observable.volume clipped rng ~eps ~delta with
                    | v -> Ok (v /. wv)
                    | exception Observable.Estimation_failed m -> Error m))))
  end

let average ?config rng inst ~free_dim ~samples q ~f =
  match Eval.compile ?config rng inst ~free_dim q with
  | Error e -> Error e
  | Ok o -> (
      let params = Params.make ~gamma:0.05 ~eps:0.2 ~delta:0.1 () in
      match Observable.sample_many o rng params ~n:samples with
      | points ->
          Ok (List.fold_left (fun acc p -> acc +. f p) 0.0 points /. float_of_int samples)
      | exception Observable.Estimation_failed m -> Error m)
