module J = Scdb_json.Json
module Jo = Scdb_json.Json_out
module Rng = Scdb_rng.Rng

type t = {
  command : string;
  args : (string * string) list;
  seed : int;
  samples : float array list;
  lineage : Rng.Provenance.info list;
  telemetry : string option;
  log_tail : string list;
}

let schema = "spatialdb-flightrec/1"
let arg t k = List.assoc_opt k t.args

(* Samples are stored as hex-float strings ("0x1.8p-1"): JSON numbers
   round-trip through decimal printers, hex floats are bit-exact by
   construction. *)
let hex_of_float f =
  if Float.is_nan f then "nan"
  else if f = Float.infinity then "inf"
  else if f = Float.neg_infinity then "-inf"
  else Printf.sprintf "%h" f

let float_of_hex s =
  match s with
  | "nan" -> Some Float.nan
  | "inf" -> Some Float.infinity
  | "-inf" -> Some Float.neg_infinity
  | _ -> float_of_string_opt s

let to_json t =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add "{\n";
  add (Printf.sprintf "  \"schema\": %S,\n" schema);
  add (Printf.sprintf "  \"command\": \"%s\",\n" (Jo.escape t.command));
  add "  \"args\": {";
  List.iteri
    (fun i (k, v) ->
      add (if i = 0 then "\n" else ",\n");
      add (Printf.sprintf "    \"%s\": \"%s\"" (Jo.escape k) (Jo.escape v)))
    t.args;
  add (if t.args = [] then "},\n" else "\n  },\n");
  add (Printf.sprintf "  \"seed\": %d,\n" t.seed);
  add "  \"samples\": [";
  List.iteri
    (fun i p ->
      add (if i = 0 then "\n" else ",\n");
      add "    [";
      Array.iteri
        (fun j x ->
          if j > 0 then add ", ";
          add (Printf.sprintf "\"%s\"" (hex_of_float x)))
        p;
      add "]")
    t.samples;
  add (if t.samples = [] then "],\n" else "\n  ],\n");
  add "  \"rng\": [";
  List.iteri
    (fun i (n : Rng.Provenance.info) ->
      add (if i = 0 then "\n" else ",\n");
      add
        (Printf.sprintf "    {\"id\": %d, \"parent\": %d, \"op\": \"%s\", \"draws\": %d}" n.id
           n.parent (Jo.escape n.op) n.draws))
    t.lineage;
  add (if t.lineage = [] then "],\n" else "\n  ],\n");
  add "  \"telemetry\": ";
  (match t.telemetry with
  | None -> add "null"
  | Some raw -> add (String.concat "\n  " (String.split_on_char '\n' raw)));
  add ",\n";
  add "  \"log_tail\": [";
  List.iteri
    (fun i line ->
      add (if i = 0 then "\n" else ",\n");
      add "    ";
      add line)
    t.log_tail;
  add (if t.log_tail = [] then "]\n" else "\n  ]\n");
  add "}\n";
  Buffer.contents buf

let of_json s =
  match J.parse s with
  | exception J.Parse_error m -> Error ("invalid JSON: " ^ m)
  | doc -> (
      let field name = J.member name doc in
      match J.member "schema" doc with
      | Some (J.Str sc) when sc = schema -> (
          let command =
            match field "command" with Some (J.Str c) -> Some c | _ -> None
          in
          let seed =
            match field "seed" with
            | Some (J.Num v) when Float.is_integer v -> Some (int_of_float v)
            | _ -> None
          in
          match (command, seed) with
          | None, _ -> Error "missing or malformed command"
          | _, None -> Error "missing or malformed seed"
          | Some command, Some seed -> (
              let args =
                match field "args" with
                | Some (J.Obj kvs) ->
                    Some
                      (List.filter_map
                         (fun (k, v) -> match v with J.Str s -> Some (k, s) | _ -> None)
                         kvs)
                | _ -> None
              in
              let samples =
                match field "samples" with
                | Some (J.Arr rows) ->
                    let parse_row = function
                      | J.Arr cells ->
                          let coords =
                            List.map
                              (function
                                | J.Str h -> float_of_hex h
                                | J.Num v -> Some v
                                | _ -> None)
                              cells
                          in
                          if List.for_all Option.is_some coords then
                            Some (Array.of_list (List.map Option.get coords))
                          else None
                      | _ -> None
                    in
                    let rows = List.map parse_row rows in
                    if List.for_all Option.is_some rows then
                      Some (List.map Option.get rows)
                    else None
                | _ -> None
              in
              let lineage =
                match field "rng" with
                | Some (J.Arr nodes) ->
                    let parse_node n =
                      let num k =
                        match J.member k n with
                        | Some (J.Num v) when Float.is_integer v -> Some (int_of_float v)
                        | _ -> None
                      in
                      let op = match J.member "op" n with Some (J.Str s) -> Some s | _ -> None in
                      match (num "id", num "parent", op, num "draws") with
                      | Some id, Some parent, Some op, Some draws ->
                          Some { Rng.Provenance.id; parent; op; draws }
                      | _ -> None
                    in
                    let nodes = List.map parse_node nodes in
                    if List.for_all Option.is_some nodes then
                      Some (List.map Option.get nodes)
                    else None
                | _ -> None
              in
              let telemetry =
                match field "telemetry" with
                | Some J.Null | None -> Some None
                | Some (J.Obj _ as o) -> Some (Some (Jo.to_string o))
                | _ -> None
              in
              let log_tail =
                match field "log_tail" with
                | Some (J.Arr lines) -> Some (List.map Jo.to_string lines)
                | None -> Some []
                | _ -> None
              in
              match (args, samples, lineage, telemetry, log_tail) with
              | Some args, Some samples, Some lineage, Some telemetry, Some log_tail ->
                  Ok { command; args; seed; samples; lineage; telemetry; log_tail }
              | None, _, _, _, _ -> Error "malformed args object"
              | _, None, _, _, _ -> Error "malformed samples array"
              | _, _, None, _, _ -> Error "malformed rng lineage array"
              | _, _, _, None, _ -> Error "malformed telemetry block"
              | _, _, _, _, None -> Error "malformed log_tail array"))
      | Some (J.Str other) -> Error (Printf.sprintf "unexpected schema %S (want %S)" other schema)
      | _ -> Error "missing schema field")

let write path t =
  let oc = open_out path in
  output_string oc (to_json t);
  close_out oc

let read path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      of_json s

let compare_samples ~recorded ~replayed =
  let bits = Int64.bits_of_float in
  let rec go i rec_rest rep_rest =
    match (rec_rest, rep_rest) with
    | [], [] -> Ok i
    | [], _ :: _ -> Error (Printf.sprintf "replay produced extra samples after index %d" (i - 1))
    | _ :: _, [] ->
        Error
          (Printf.sprintf "replay stream ended early: recorded %d more sample(s) after index %d"
             (List.length rec_rest) (i - 1))
    | a :: rec_rest, b :: rep_rest ->
        if Array.length a <> Array.length b then
          Error
            (Printf.sprintf "sample %d: dimension mismatch (recorded %d, replayed %d)" i
               (Array.length a) (Array.length b))
        else begin
          let divergent = ref (-1) in
          (try
             for j = 0 to Array.length a - 1 do
               if bits a.(j) <> bits b.(j) then begin
                 divergent := j;
                 raise Exit
               end
             done
           with Exit -> ());
          if !divergent >= 0 then begin
            let j = !divergent in
            Error
              (Printf.sprintf
                 "first divergence at sample %d, coordinate %d: recorded %s (%.17g), replayed %s \
                  (%.17g)"
                 i j (hex_of_float a.(j)) a.(j) (hex_of_float b.(j)) b.(j))
          end
          else go (i + 1) rec_rest rep_rest
        end
  in
  go 0 recorded replayed
