(* Correctness checks on CLI answers, against exact oracles.  Any
   failed check makes the query a failed operation; a volume estimate
   outside ratio 1+eps is not a failure (it may happen with
   probability <= delta) and only lowers volume_contract_frac. *)

module FM = Scdb_qe.Fourier_motzkin
module VE = Scdb_polytope.Volume_exact
module Jm = Scdb_trace.Json_min
open Scdb_constr

let eps = 0.2 (* the CLI's default, used by every workload query *)

type oracle = {
  relation : Relation.t;
  volume : float;  (** exact, Lasserre + inclusion-exclusion *)
  shares : float array;  (** vol(S_i)/vol(union) per DNF tuple *)
}

let parse_relation vars formula =
  match Parser.parse ~vars formula with
  | f ->
      let f = if Formula.is_quantifier_free f then f else FM.eliminate f in
      Ok (Relation.of_formula ~dim:(List.length vars) f)
  | exception Parser.Parse_error m -> Error ("parse error: " ^ m)
  | exception Lexer.Lex_error (m, _) -> Error ("lex error: " ^ m)

let oracle vars formula =
  match parse_relation vars formula with
  | Error e -> Error e
  | Ok relation -> (
      let dim = Relation.dim relation in
      match VE.volume_relation relation with
      | exception VE.Unbounded -> Error "relation is unbounded"
      | exception Invalid_argument m -> Error m
      | v ->
          let volume = Scdb_num.Rational.to_float v in
          if not (volume > 0.0) then Error "relation is empty or lower-dimensional"
          else
            let shares =
              Array.of_list
                (List.map
                   (fun t -> Scdb_num.Rational.to_float (VE.volume_tuple ~dim t) /. volume)
                   (Relation.tuples relation))
            in
            Ok { relation; volume; shares })

(* Points are printed with %.6f, so each coordinate is off by at most
   5e-7; every workload atom has an L1 coefficient norm below 20. *)
let slack = 1e-5

let check_points (o : oracle) ~n (pts : float array list) =
  let dim = Relation.dim o.relation in
  let tuples = Array.of_list (Relation.tuples o.relation) in
  let hits = Array.make (Array.length tuples) 0 in
  let inside p =
    Array.length p = dim
    && Array.for_all Float.is_finite p
    &&
    let any = ref false in
    Array.iteri
      (fun i t ->
        if Dnf.tuple_holds_float ~slack t p then begin
          hits.(i) <- hits.(i) + 1;
          any := true
        end)
      tuples;
    !any
  in
  let count = List.length pts in
  if count <> n then Error (Printf.sprintf "%d points, expected %d" count n)
  else
    match List.find_opt (fun p -> not (inside p)) pts with
    | Some p ->
        Error
          (Printf.sprintf "point (%s) is malformed or outside the relation"
             (String.concat ", " (Array.to_list (Array.map string_of_float p))))
    | None ->
        (* Per-operand hit fractions h against the exact shares p.  The
           result is the worst deviation in binomial sigmas, |h-p|/sigma.
           An almost-uniform generator may deviate by up to eps*p
           (Def. 2.2; the Karp-Luby weights are estimated), so only a
           deviation beyond eps*p plus 5 sigma (plus a half-count
           continuity correction) is a failure: it means wrong weights,
           not estimated ones. *)
        let nf = float_of_int n in
        let sigma i = sqrt (o.shares.(i) *. (1.0 -. o.shares.(i)) /. nf) in
        let dev i = Float.abs ((float_of_int hits.(i) /. nf) -. o.shares.(i)) in
        let idx = List.init (Array.length tuples) Fun.id in
        let outside i = dev i > (eps *. o.shares.(i)) +. (5.0 *. sigma i) +. (0.5 /. nf) in
        match List.find_opt outside idx with
        | Some i ->
            Error
              (Printf.sprintf "operand %d hit fraction %.5f, exact share %.5f (n=%d)" i
                 (float_of_int hits.(i) /. nf) o.shares.(i) n)
        | None ->
            Ok
              (List.fold_left
                 (fun acc i -> if sigma i > 0.0 then Float.max acc (dev i /. sigma i) else acc)
                 0.0 idx)

let parse_points text =
  match
    List.filter_map
      (function
        | "" -> None
        | l -> Some (Array.of_list (List.map float_of_string (String.split_on_char '\t' l))))
      (String.split_on_char '\n' text)
  with
  | pts -> Ok pts
  | exception Failure _ -> Error "unparsable point line"

let check_sample o ~n stdout =
  match parse_points stdout with Error e -> Error e | Ok pts -> check_points o ~n pts

(* A report document's samples and volume estimate. *)
let report_fields doc =
  let point v =
    match Option.map (List.map Jm.to_float) (Jm.to_list v) with
    | Some fs when List.for_all Option.is_some fs -> Some (Array.of_list (List.map Option.get fs))
    | _ -> None
  in
  match Jm.parse doc with
  | exception _ -> Error "report is not valid JSON"
  | j -> (
      let pts = Option.map (List.map point) (Option.bind (Jm.member "samples" j) Jm.to_list) in
      match (pts, Option.bind (Jm.member "volume" j) Jm.to_float) with
      | Some pts, Some v when List.for_all Option.is_some pts -> Ok (List.map Option.get pts, v)
      | _, None -> Error "report volume is missing or null"
      | _ -> Error "report samples are missing or malformed")

(* The worst operand deviation in sigmas, and whether the volume
   estimate is within ratio 1+eps of the exact volume. *)
let check_report o ~n stdout =
  match report_fields stdout with
  | Error e -> Error e
  | Ok (_, volume) when not (Float.is_finite volume && volume > 0.0) ->
      Error (Printf.sprintf "non-finite or non-positive volume %g" volume)
  | Ok (points, volume) ->
      Result.map
        (fun bias_sigma ->
          let r = volume /. o.volume in
          (bias_sigma, r <= 1.0 +. eps && r >= 1.0 /. (1.0 +. eps)))
        (check_points o ~n points)
