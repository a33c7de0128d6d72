module Rng = Scdb_rng.Rng

type t = {
  gamma : float;
  dim : int;
  origin : Vec.t; (* lower corner of the bounding box *)
  members : int array array; (* multi-indices of cells inside the relation *)
  scanned : int;
}

let relation_bbox r =
  let dim = Relation.dim r in
  (* Empty tuples (LP-infeasible, e.g. produced by DNF of a difference)
     contribute nothing; only a non-empty unbounded tuple is fatal. *)
  let boxes =
    List.filter_map
      (fun tuple ->
        let poly = Polytope.of_tuple ~dim tuple in
        match Polytope.bounding_box poly with
        | Some box -> Some (Some box)
        | None -> if Polytope.is_empty poly then None else Some None)
      (Relation.tuples r)
  in
  if boxes = [] || List.exists Option.is_none boxes then None
  else begin
    let boxes = List.filter_map Fun.id boxes in
    let lo = Vec.init dim (fun i -> List.fold_left (fun acc (l, _) -> Float.min acc l.(i)) infinity boxes) in
    let hi = Vec.init dim (fun i -> List.fold_left (fun acc (_, h) -> Float.max acc h.(i)) neg_infinity boxes) in
    Some (lo, hi)
  end

let max_cells = 100_000_000

let build ~gamma r =
  if gamma <= 0.0 then invalid_arg "Gridvol.build: gamma must be positive";
  match relation_bbox r with
  | None -> None
  | Some (lo, hi) ->
      let dim = Relation.dim r in
      let counts =
        Array.init dim (fun i -> Stdlib.max 1 (int_of_float (ceil ((hi.(i) -. lo.(i)) /. gamma))))
      in
      let total = Array.fold_left (fun acc c ->
          if acc > max_cells / Stdlib.max c 1 then invalid_arg "Gridvol.build: too many cells"
          else acc * c) 1 counts
      in
      let mem = Relation.mem_float r in
      let members = ref [] in
      let index = Array.make dim 0 in
      let centre = Vec.create dim in
      let scanned = ref 0 in
      let rec scan coord =
        if coord = dim then begin
          incr scanned;
          for i = 0 to dim - 1 do
            centre.(i) <- lo.(i) +. ((float_of_int index.(i) +. 0.5) *. gamma)
          done;
          if mem centre then members := Array.copy index :: !members
        end
        else
          for v = 0 to counts.(coord) - 1 do
            index.(coord) <- v;
            scan (coord + 1)
          done
      in
      scan 0;
      assert (!scanned = total);
      Some { gamma; dim; origin = lo; members = Array.of_list !members; scanned = !scanned }

let cell_count t = Array.length t.members
let cells_scanned t = t.scanned
let gamma t = t.gamma

let volume t = float_of_int (cell_count t) *. (t.gamma ** float_of_int t.dim)

let sample t rng =
  if cell_count t = 0 then invalid_arg "Gridvol.sample: empty decomposition";
  let cell = Rng.pick rng t.members in
  Vec.init t.dim (fun i ->
      t.origin.(i) +. ((float_of_int cell.(i) +. Rng.float rng) *. t.gamma))
