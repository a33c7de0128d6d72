(* One CLI query as a child process: argv in, stdout through a pipe,
   stderr to a file.  The child runs with OCAMLRUNPARAM=v=0x400, so the
   runtime appends its GC statistics (top_heap_words among them) to
   stderr at exit; the variables that would switch on the program's own
   telemetry or logging are removed from its environment. *)

module Clock = Scdb_telemetry.Telemetry.Clock

type result = {
  wall : float;  (** seconds, spawn to reap *)
  status : Unix.process_status;
  stdout : string;
  stderr : string;
  top_heap_words : int option;
}

let env =
  lazy
    (let drop v =
       List.exists
         (fun p -> String.starts_with ~prefix:p v)
         [ "OCAMLRUNPARAM="; "SPATIALDB_STATS="; "SPATIALDB_LOG=" ]
     in
     Array.append [| "OCAMLRUNPARAM=v=0x400" |]
       (Array.of_list (List.filter (fun v -> not (drop v)) (Array.to_list (Unix.environment ())))))

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, st -> st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let read_all fd =
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
        Buffer.add_subbytes buf chunk 0 k;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents buf

let read_file path = In_channel.with_open_bin path In_channel.input_all

let top_heap_words err =
  List.find_map
    (fun line ->
      match String.split_on_char ':' line with
      | [ "top_heap_words"; v ] -> int_of_string_opt (String.trim v)
      | _ -> None)
    (String.split_on_char '\n' err)

let run ~bin ~errfile argv =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile errfile [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let t0 = Clock.now () in
  let pid =
    Unix.create_process_env bin (Array.of_list (bin :: argv)) (Lazy.force env) Unix.stdin wr err
  in
  Unix.close wr;
  Unix.close err;
  let stdout = read_all rd in
  let status = waitpid pid in
  let wall = Clock.now () -. t0 in
  Unix.close rd;
  let stderr = read_file errfile in
  { wall; status; stdout; stderr; top_heap_words = top_heap_words stderr }

let exited_ok r = r.status = Unix.WEXITED 0

let describe_status = function
  | Unix.WEXITED k -> Printf.sprintf "exit %d" k
  | Unix.WSIGNALED k -> Printf.sprintf "signal %d" k
  | Unix.WSTOPPED k -> Printf.sprintf "stopped %d" k
