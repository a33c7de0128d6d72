(* The benchmark's own spans: name, start, end, parent and query id,
   kept in memory and written out when the run ends.  Disabled, [span]
   is a plain call, so the untraced in-process pass pays nothing. *)

module Clock = Scdb_telemetry.Telemetry.Clock

type t = { id : int; name : string; query : int; parent : int; start : float; stop : float }

let enabled = ref false
let recorded : t list ref = ref []
let stack = ref []
let next_id = ref 0

let span ~query name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = Clock.now () in
    let finish () =
      let stop = Clock.now () in
      stack := List.tl !stack;
      recorded := { id; name; query; parent; start; stop } :: !recorded
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let all () = List.rev !recorded
let duration s = s.stop -. s.start

(* Self time: the span's duration minus the part its children cover
   (children never overlap, there is one client). *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    spans

let write path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": \"%s\", \"query\": %d, \"parent\": %d, \"start\": %.9f, \"end\": %.9f}\n"
        s.id s.name s.query s.parent s.start s.stop)
    spans;
  close_out oc
