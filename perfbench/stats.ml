(* Order statistics and the metric-name grammar. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (numpy's default). *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let median xs = percentile xs 50.0

let tail_levels = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* The highest percentile of [tail_levels] with at least [min_beyond]
   samples strictly above it, as (level, value, samples beyond). *)
let tail ?(min_beyond = 10) xs =
  List.find_map
    (fun p ->
      let v = percentile xs p in
      let beyond = List.length (List.filter (fun x -> x > v) xs) in
      if beyond >= min_beyond then Some (p, v, beyond) else None)
    tail_levels

let sum xs = List.fold_left ( +. ) 0.0 xs

let ratio num den = if den = 0.0 then 0.0 else num /. den

let is_name_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false

(* Metric and workload names: a letter or digit first, then at most 64
   characters of letters, digits, '_', '.' and '-'. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all is_name_char s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all (fun c -> is_name_char c || c = '/' || c = '%') s
