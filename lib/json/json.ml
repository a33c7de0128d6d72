exception Parse_error of string

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

type state = { s : string; mutable pos : int }

let fail st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))
let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.s
    && match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some x when x = c -> st.pos <- st.pos + 1
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let parse_literal st lit v =
  let n = String.length lit in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = lit then begin
    st.pos <- st.pos + n;
    v
  end
  else fail st ("expected " ^ lit)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.s then fail st "unterminated string";
    let c = st.s.[st.pos] in
    st.pos <- st.pos + 1;
    if c = '"' then Buffer.contents buf
    else if c = '\\' then begin
      if st.pos >= String.length st.s then fail st "unterminated escape";
      let e = st.s.[st.pos] in
      st.pos <- st.pos + 1;
      (match e with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'u' ->
          if st.pos + 4 > String.length st.s then fail st "truncated \\u escape";
          let hex = String.sub st.s st.pos 4 in
          st.pos <- st.pos + 4;
          let code =
            try int_of_string ("0x" ^ hex) with _ -> fail st "bad \\u escape"
          in
          (* UTF-8 encode the BMP code point; surrogate pairs are beyond
             what our own emitters produce. *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
      | _ -> fail st "bad escape");
      go ()
    end
    else begin
      Buffer.add_char buf c;
      go ()
    end
  in
  go ()

(* RFC 8259 number grammar: an optional minus, then 0 or a digit run
   without a leading zero, an optional fraction with at least one
   digit, an optional exponent with at least one digit.  So "+1", ".5",
   "1.", "01", "1e" and a bare "-" are rejected, and anything this
   reader accepts, jq and Perfetto accept too. *)
let parse_number st =
  let start = st.pos in
  let digits () =
    let from = st.pos in
    while match peek st with Some '0' .. '9' -> true | _ -> false do
      st.pos <- st.pos + 1
    done;
    if st.pos = from then fail st "expected digit"
  in
  if peek st = Some '-' then st.pos <- st.pos + 1;
  (match peek st with
  | Some '0' -> st.pos <- st.pos + 1
  | Some '1' .. '9' -> digits ()
  | _ -> fail st "expected number");
  if peek st = Some '.' then begin
    st.pos <- st.pos + 1;
    digits ()
  end;
  (match peek st with
  | Some ('e' | 'E') ->
      st.pos <- st.pos + 1;
      (match peek st with Some ('+' | '-') -> st.pos <- st.pos + 1 | _ -> ());
      digits ()
  | _ -> ());
  Num (float_of_string (String.sub st.s start (st.pos - start)))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
      expect st '{';
      skip_ws st;
      if peek st = Some '}' then begin
        expect st '}';
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              expect st ',';
              members ((k, v) :: acc)
          | Some '}' ->
              expect st '}';
              Obj (List.rev ((k, v) :: acc))
          | _ -> fail st "expected ',' or '}'"
        in
        members []
      end
  | Some '[' ->
      expect st '[';
      skip_ws st;
      if peek st = Some ']' then begin
        expect st ']';
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              expect st ',';
              elements (v :: acc)
          | Some ']' ->
              expect st ']';
              Arr (List.rev (v :: acc))
          | _ -> fail st "expected ',' or ']'"
        in
        elements []
      end
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some _ -> parse_number st

let parse s =
  let st = { s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_list = function Arr xs -> Some xs | _ -> None
let to_float = function Num v -> Some v | _ -> None
let to_string = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
