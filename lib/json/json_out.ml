let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let num v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(* [%.6f] by exact integer arithmetic.  A finite double is m·2^e with
   m < 2^53; |x| < 2^53 means e <= 0, so with k = -e the value is
   m/2^k and the six-decimal answer is round(m·10^6 / 2^k), ties to
   even (glibc's rule under the default rounding mode).  The quotient
   and the remainder against 2^(k-1) are computed without overflowing
   63-bit ints:
   - k <= 42: split off the integer part m lsr k; the fraction's
     numerator r < 2^42, so r·10^6 < 2^62;
   - k > 42 (|x| < 2^11): 10^6 = 2^6·15625, so m·10^6/2^k =
     m·15625/2^(k-6), and m·15625 < 2^67 is carried as c·2^30 + bl
     with c < 2^38 and bl < 2^30.
   Everything else (NaN, ±inf, |x| >= 2^53) goes to [Printf]. *)
let million = 1_000_000

let rec add_uint buf v =
  if v >= 10 then add_uint buf (v / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (v mod 10)))

let add_fixed6 buf x =
  let b = Int64.to_int (Int64.bits_of_float x) in
  let biased = (b lsr 52) land 0x7ff in
  if biased > 1075 then Buffer.add_string buf (Printf.sprintf "%.6f" x)
  else begin
    let mant = b land ((1 lsl 52) - 1) in
    let m = if biased = 0 then mant else mant lor (1 lsl 52) in
    let k = 1075 - Stdlib.max biased 1 in
    (* ip: integer part; q: the fraction scaled by 10^6, truncated;
       cmp: the dropped remainder against one half (-1, 0, 1). *)
    let ip, q, cmp =
      if k = 0 then (m, 0, -1)
      else if k <= 42 then begin
        let mask = (1 lsl k) - 1 in
        let t = (m land mask) * million in
        (m lsr k, t lsr k, compare (t land mask) (1 lsl (k - 1)))
      end
      else begin
        let a = (m lsr 30) * 15625 and bv = (m land 0x3fffffff) * 15625 in
        let c = a + (bv lsr 30) and bl = bv land 0x3fffffff in
        (* m·15625 / 2^(k-6) = (c + bl/2^30) / 2^s *)
        let s = k - 36 in
        if s >= 40 then (0, 0, -1)
        else begin
          let cr = c land ((1 lsl s) - 1) and hs = 1 lsl (s - 1) in
          let cmp = if cr <> hs then compare cr hs else if bl > 0 then 1 else 0 in
          let q = c lsr s in
          (q / million, q mod million, cmp)
        end
      end
    in
    let q = if cmp > 0 || (cmp = 0 && q land 1 = 1) then q + 1 else q in
    let ip, q = if q = million then (ip + 1, 0) else (ip, q) in
    if Float.sign_bit x then Buffer.add_char buf '-';
    add_uint buf ip;
    Buffer.add_char buf '.';
    let digit v = Buffer.add_char buf (Char.unsafe_chr (48 + v)) in
    digit (q / 100_000);
    digit (q / 10_000 mod 10);
    digit (q / 1000 mod 10);
    digit (q / 100 mod 10);
    digit (q / 10 mod 10);
    digit (q mod 10)
  end

let rec to_string = function
  | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b
  | Json.Num v -> num v
  | Json.Str s -> "\"" ^ escape s ^ "\""
  | Json.Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Json.Obj kvs ->
      "{"
      ^ String.concat ", " (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kvs)
      ^ "}"
