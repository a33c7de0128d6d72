exception Unbounded

module Es = Scdb_lp.Exact_simplex
module Q = Rational

(* A constraint [row · x <= rhs] over [dim] variables. *)
type cstr = { row : Q.t array; rhs : Q.t }

let normalize_constraint c =
  (* Scale so that the first non-zero coefficient has absolute value 1;
     identical halfspaces then compare structurally equal. *)
  let lead = Array.find_opt (fun x -> not (Q.is_zero x)) c.row in
  match lead with
  | None -> None (* constant constraint: trivially true or infeasible *)
  | Some l ->
      let s = Q.inv (Q.abs l) in
      Some { row = Array.map (Q.mul s) c.row; rhs = Q.mul s c.rhs }

(* Keep, for each distinct direction, only the tightest right-hand side;
   report [None] if a constant constraint is violated (empty set). *)
let preprocess cstrs =
  let table = Hashtbl.create 16 in
  let infeasible = ref false in
  List.iter
    (fun c ->
      match normalize_constraint c with
      | None -> if Q.sign c.rhs < 0 then infeasible := true
      | Some c ->
          let key = Array.map Q.to_string c.row in
          (match Hashtbl.find_opt table key with
          | Some c' when Q.compare c'.rhs c.rhs <= 0 -> ()
          | _ -> Hashtbl.replace table key c))
    cstrs;
  if !infeasible then None
  else Some (Hashtbl.fold (fun _ c acc -> c :: acc) table [])

(* Substitute [x_k := (rhs0 − Σ_{j≠k} row0_j x_j) / row0_k] into [c],
   producing a constraint over [dim−1] variables (coordinate [k] removed). *)
let substitute ~k ~pivot c =
  let pk = pivot.row.(k) in
  let ck = c.row.(k) in
  let factor = Q.div ck pk in
  let d = Array.length c.row in
  let row =
    Array.init (d - 1) (fun j ->
        let j' = if j < k then j else j + 1 in
        Q.sub c.row.(j') (Q.mul factor pivot.row.(j')))
  in
  { row; rhs = Q.sub c.rhs (Q.mul factor pivot.rhs) }

let rec volume_rec dim cstrs =
  match preprocess cstrs with
  | None -> Q.zero
  | Some cstrs ->
      if dim = 1 then begin
        let lo = ref None and hi = ref None in
        List.iter
          (fun c ->
            let a = c.row.(0) in
            let s = Q.sign a in
            if s > 0 then begin
              let v = Q.div c.rhs a in
              match !hi with Some h when Q.compare h v <= 0 -> () | _ -> hi := Some v
            end
            else if s < 0 then begin
              let v = Q.div c.rhs a in
              match !lo with Some l when Q.compare l v >= 0 -> () | _ -> lo := Some v
            end)
          cstrs;
        match (!lo, !hi) with
        | Some l, Some h -> if Q.compare l h >= 0 then Q.zero else Q.sub h l
        | _ -> raise Unbounded
      end
      else begin
        if cstrs = [] then raise Unbounded;
        let arr = Array.of_list cstrs in
        let total = ref Q.zero in
        Array.iteri
          (fun i pivot ->
            (* Choose the substitution coordinate with the largest pivot. *)
            let k = ref 0 in
            Array.iteri (fun j c -> if Q.compare (Q.abs c) (Q.abs pivot.row.(!k)) > 0 then k := j) pivot.row;
            if not (Q.is_zero pivot.row.(!k)) then begin
              let facet =
                Array.to_list
                  (Array.mapi
                     (fun i' c -> if i' = i then None else Some (substitute ~k:!k ~pivot c))
                     arr)
                |> List.filter_map Fun.id
              in
              let sub = volume_rec (dim - 1) facet in
              if not (Q.is_zero sub) then begin
                let contribution =
                  Q.div (Q.mul pivot.rhs sub)
                    (Q.mul (Q.of_int dim) (Q.abs pivot.row.(!k)))
                in
                total := Q.add !total contribution
              end
            end)
          arr;
        !total
      end

let check_bounded ~dim a b =
  if dim = 0 then ()
  else begin
    let basis i = Array.init dim (fun j -> if i = j then Q.one else Q.zero) in
    for i = 0 to dim - 1 do
      let check c =
        match Es.maximize ~a ~b ~c with
        | Es.Unbounded -> raise Unbounded
        | Es.Infeasible | Es.Optimal _ -> ()
      in
      check (basis i);
      check (Array.map Q.neg (basis i))
    done
  end

let volume_system ~dim a b =
  if Array.length a <> Array.length b then invalid_arg "Volume_exact.volume_system";
  if dim = 0 then (if Es.is_feasible ~a ~b then Q.one else Q.zero)
  else begin
    if not (Es.is_feasible ~a ~b) then Q.zero
    else begin
      check_bounded ~dim a b;
      let cstrs = Array.to_list (Array.map2 (fun row rhs -> { row; rhs }) a b) in
      volume_rec dim cstrs
    end
  end

let tuple_system ~dim tuple =
  let rows =
    List.concat_map
      (fun (atom : Atom.t) ->
        let row = Array.make dim Q.zero in
        List.iter (fun (i, c) -> if i >= dim then invalid_arg "Volume_exact: variable out of range" else row.(i) <- c) (Term.coeffs atom.term);
        let rhs = Q.neg (Term.constant atom.term) in
        match atom.op with
        | Atom.Le | Atom.Lt -> [ (row, rhs) ]
        | Atom.Eq -> [ (row, rhs); (Array.map Q.neg row, Q.neg rhs) ])
      tuple
  in
  (Array.of_list (List.map fst rows), Array.of_list (List.map snd rows))

let volume_tuple ~dim tuple =
  let a, b = tuple_system ~dim tuple in
  volume_system ~dim a b

(* Inclusion–exclusion over the non-empty subsets of tuples, in
   increasing mask order.  The intersection of a superset is contained
   in that of each of its subsets, so once an intersection has volume
   zero (empty, or only touching) every superset is zero too and is
   skipped: a subset is zero when some subset one tuple smaller is.  A
   disjoint union then costs its t tuple volumes and the pairwise
   checks, not 2^t − 1 recursions. *)
let default_max_tuples = 16

let volume_relation ?(max_tuples = default_max_tuples) r =
  let tuples = Array.of_list (Relation.tuples r) in
  let t = Array.length tuples in
  if t > max_tuples then invalid_arg "Volume_exact.volume_relation: too many tuples";
  let dim = Relation.dim r in
  let zero = Array.make (1 lsl t) false in
  let total = ref Q.zero in
  for mask = 1 to (1 lsl t) - 1 do
    let members = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init t Fun.id) in
    if List.exists (fun i -> zero.(mask lxor (1 lsl i))) members then zero.(mask) <- true
    else begin
      let v = volume_tuple ~dim (List.concat_map (fun i -> tuples.(i)) members) in
      if Q.is_zero v then zero.(mask) <- true
      else if List.length members mod 2 = 1 then total := Q.add !total v
      else total := Q.sub !total v
    end
  done;
  !total

let volume_relation_opt ?max_tuples r =
  match volume_relation ?max_tuples r with
  | v -> Some v
  | exception Unbounded -> None
  | exception Invalid_argument _ -> None

let float_volume_relation ?max_tuples r = Q.to_float (volume_relation ?max_tuples r)
