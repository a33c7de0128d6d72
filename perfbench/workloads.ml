(* Seeded query generation.  A workload is a list of rounds; a round
   holds one query per template (stratum), and the seed picks the small
   rational coefficients of each template and each query's CLI seed.
   The timed pass runs whole rounds, so every run has the same mix of
   strata and a run-to-run difference reflects the program, not the
   draw of shapes. *)

type kind =
  | Sample of { n : int; engine : string }
  | Report of { n : int }

type query = {
  id : int;
  round : int;  (** the timed pass runs whole rounds, one query per stratum each *)
  label : string;  (** stratum, e.g. ["union2d-m3"] *)
  vars : string list;
  formula : string;
  seed : int;  (** the CLI's [--seed] *)
  kind : kind;
}

type workload = {
  name : string;
  why : string;
  queries : int -> query list;  (** by workload seed, round by round *)
}

let figure1 = "(x >= 0 /\\ y >= 0 /\\ x + y <= 1) \\/ (2 <= x /\\ x <= 3 /\\ 0 <= y /\\ y <= 1)"

(* Exact rationals as formula text: [q num den] prints num/den reduced. *)
let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let q num den =
  let g = gcd num den in
  let num = num / g and den = den / g in
  if den = 1 then string_of_int num else Printf.sprintf "%d/%d" num den

let pick st arr = arr.(Random.State.int st (Array.length arr))

(* Every piece contains the anchor point, in quarters, so the pieces
   of one union always overlap.  Offsets stay within [1/2, 3/4]: the
   pieces keep their aspect ratios, and so their sampling cost, from
   seed to seed. *)
let anchor dim = Array.init dim (fun i -> if i = 0 then 4 else 2)

let quarters = [| 2; 3 |]

let box st vars =
  let a = anchor (Array.length vars) in
  String.concat " /\\ "
    (List.concat
       (List.mapi
          (fun i v ->
            let lo = a.(i) - pick st quarters and hi = a.(i) + pick st quarters in
            [ Printf.sprintf "%s >= %s" v (q lo 4); Printf.sprintf "%s <= %s" v (q hi 4) ])
          (Array.to_list vars)))

(* A corner simplex {x_i >= a_i - u_i, sum c_i x_i <= sum c_i a_i + w}. *)
let corner st vars =
  let a = anchor (Array.length vars) in
  let cs = Array.map (fun _ -> pick st [| 1; 1; 2 |]) vars in
  let lower =
    List.mapi
      (fun i v -> Printf.sprintf "%s >= %s" v (q (a.(i) - pick st quarters) 4))
      (Array.to_list vars)
  in
  let lhs =
    String.concat " + "
      (List.mapi
         (fun i v -> if cs.(i) = 1 then v else Printf.sprintf "%d*%s" cs.(i) v)
         (Array.to_list vars))
  in
  let rhs = Array.fold_left ( + ) 0 (Array.mapi (fun i c -> c * a.(i)) cs) + pick st [| 3; 4 |] in
  String.concat " /\\ " (lower @ [ Printf.sprintf "%s <= %s" lhs (q rhs 4) ])

(* Boxes and corner simplices alternate, so the piece mix is fixed. *)
let union st vars m =
  String.concat " \\/ "
    (List.init m (fun i -> "(" ^ (if i mod 2 = 0 then box st vars else corner st vars) ^ ")"))

let xyz = [| "x"; "y"; "z" |]
let xy = [| "x"; "y" |]

(* A convex body in dimension d: a box cut by one slanted halfspace
   through three quarters of its diagonal. *)
let body st d =
  let vars = Array.init d (fun i -> Printf.sprintf "x%d" (i + 1)) in
  let ws = Array.map (fun _ -> pick st [| 6; 8 |]) vars in
  let cs = Array.map (fun _ -> pick st [| 1; 2 |]) vars in
  let full = Array.fold_left ( + ) 0 (Array.mapi (fun i c -> c * ws.(i)) cs) in
  let cut = full * 3 / 4 in
  let bounds =
    List.mapi (fun i v -> Printf.sprintf "0 <= %s /\\ %s <= %s" v v (q ws.(i) 4)) (Array.to_list vars)
  in
  let lhs =
    String.concat " + "
      (List.mapi
         (fun i v -> if cs.(i) = 1 then v else Printf.sprintf "%d*%s" cs.(i) v)
         (Array.to_list vars))
  in
  (Array.to_list vars, String.concat " /\\ " (bounds @ [ Printf.sprintf "%s <= %s" lhs (q cut 4) ]))

(* The 2-D shadow of a seeded 3-D corner simplex. *)
let projection st =
  let p = pick st [| 1; 2 |] and r = pick st [| 6; 8; 10 |] and h = pick st [| 2; 4 |] in
  Printf.sprintf "exists z. 0 <= z /\\ z <= %s /\\ x >= 0 /\\ y >= 0 /\\ %s + y + z <= %s" (q h 4)
    (if p = 1 then "x" else "2*x")
    (q r 4)

let build ~rounds seed salt templates =
  List.concat
    (List.init rounds (fun round ->
         let st = Random.State.make [| seed; salt; round |] in
         List.map
           (fun (label, mk) ->
             let vars, formula, kind = mk st in
             (round, label, vars, formula, kind))
           templates))
  |> List.mapi (fun id (round, label, vars, formula, kind) ->
         { id; round; label; vars; formula; seed = (seed * 1009) + id; kind })

let sample_n n = Sample { n; engine = "interp" }

let union_query seed =
  let u2 m = (Printf.sprintf "union2d-m%d" m, fun st -> ([ "x"; "y" ], union st xy m, sample_n 2000)) in
  let u3 m = (Printf.sprintf "union3d-m%d" m, fun st -> ([ "x"; "y"; "z" ], union st xyz m, sample_n 2000)) in
  build ~rounds:8 seed 1
    ([ ("figure1", fun _ -> ([ "x"; "y" ], figure1, sample_n 2000)) ]
    @ List.map u2 [ 2; 3; 4; 2; 3; 4 ]
    @ List.map u3 [ 2; 3 ])

(* A fixed 3-D union of a box, a corner simplex and a slab: the draw
   loop's cost depends on the pieces' overlap, so bulk queries keep
   their shapes and only the CLI seed changes between rounds. *)
let union3d_fixed =
  "(0 <= x /\\ x <= 1 /\\ 0 <= y /\\ y <= 1 /\\ 0 <= z /\\ z <= 1) \\/ (x >= 1/2 /\\ y >= 0 /\\ z >= 0 \
   /\\ x + y + z <= 2) \\/ (0 <= x /\\ x <= 2 /\\ 1/4 <= y /\\ y <= 3/4 /\\ 0 <= z /\\ z <= 1/2)"

(* Both bulk workloads draw from the same relations, so their only
   difference is the engine. *)
let bulk engine seed =
  let s n = Sample { n; engine } in
  build ~rounds:6 seed 2
    [
      ("figure1", fun _ -> ([ "x"; "y" ], figure1, s 200_000));
      ("union3d-m3", fun _ -> ([ "x"; "y"; "z" ], union3d_fixed, s 100_000));
    ]

let report_volume seed =
  let r = Report { n = 2000 } in
  let b d = (Printf.sprintf "body%dd" d, fun st -> let vars, f = body st d in (vars, f, r)) in
  build ~rounds:4 seed 3
    [
      ("figure1", fun _ -> ([ "x"; "y" ], figure1, r));
      ("union3d-m2", fun st -> ([ "x"; "y"; "z" ], union st xyz 2, r));
      b 3;
      b 4;
      b 5;
      ("projection", fun st -> ([ "x"; "y" ], projection st, r));
    ]

let all =
  [
    {
      name = "union-query";
      why =
        "short sample -n 2000 union queries: the fixed per-query cost (Karp-Luby weight prologue) \
         dominates, the draw loop is a few percent";
      queries = union_query;
    };
    {
      name = "bulk-draw-interp";
      why = "long sample queries on the default engine: the draw loop and output dominate";
      queries = bulk "interp";
    };
    {
      name = "bulk-draw-vm-opt";
      why = "the same long queries on --engine vm-opt: compiled draw loop and output dominate";
      queries = bulk "vm-opt";
    };
    {
      name = "report-volume";
      why =
        "report -n 2000 on convex bodies in d=3-5, unions and a projection: (eps,delta) volume \
         estimation, diagnostics, trace and JSON";
      queries = report_volume;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let argv q =
  let common = [ "-v"; String.concat "," q.vars; "-f"; q.formula ] in
  match q.kind with
  | Sample { n; engine } ->
      ("sample" :: common)
      @ [ "-n"; string_of_int n; "--seed"; string_of_int q.seed ]
      @ if engine = "interp" then [] else [ "--engine"; engine ]
  | Report { n } -> ("report" :: common) @ [ "-n"; string_of_int n; "--seed"; string_of_int q.seed ]

let points q = match q.kind with Sample { n; _ } | Report { n } -> n

(* One line per query: the listing the determinism self-test compares. *)
let render qs =
  String.concat ""
    (List.map (fun q -> Printf.sprintf "%d\t%s\t%s\n" q.id q.label (String.concat " " (argv q))) qs)
