let samples_for_additive ~eps ~delta =
  if eps <= 0.0 || delta <= 0.0 then invalid_arg "Cost.samples_for_additive";
  int_of_float (ceil (log (2.0 /. delta) /. (2.0 *. eps *. eps)))

let samples_for_ratio ~eps ~delta ~p_lower =
  if eps <= 0.0 || delta <= 0.0 || p_lower <= 0.0 then invalid_arg "Cost.samples_for_ratio";
  int_of_float (ceil (3.0 *. log (2.0 /. delta) /. (eps *. eps *. p_lower)))

let union_trials ~m ~delta =
  Stdlib.max 4 (int_of_float (ceil (float_of_int m *. log (1.0 /. delta))))

let rejection_budget ~dim ~poly_degree ~delta =
  let d = Float.max 2.0 (float_of_int dim) in
  let bound = (d ** float_of_int poly_degree) *. log (1.0 /. delta) in
  Stdlib.max 32 (int_of_float (ceil bound))

let poly_floor ~dim ~poly_degree =
  1.0 /. (Float.max 2.0 (float_of_int dim) ** float_of_int poly_degree)

let boost_runs ~delta =
  if delta <= 0.0 || delta >= 1.0 then invalid_arg "Cost.boost_runs";
  let n = int_of_float (ceil (18.0 *. log (1.0 /. delta))) in
  let n = Stdlib.max 1 n in
  if n mod 2 = 0 then n + 1 else n

let hit_and_run_steps ~dim =
  let d = float_of_int dim in
  int_of_float (Float.max 60.0 (12.0 *. d *. log (d +. 2.0) *. log (d +. 2.0)))

let lattice_steps ~dim ~eps =
  let d = float_of_int dim in
  int_of_float (Float.max 200.0 (8.0 *. d *. d *. d *. log (1.0 /. eps)))

let rejection_box_trials ~dim =
  let d = Stdlib.min dim 16 in
  Stdlib.min 20_000 (4 * (1 lsl d))

let volume_phases ~dim ?aspect () =
  if dim = 0 then 0
  else begin
    let d = float_of_int dim in
    let aspect = match aspect with Some a -> a | None -> Float.max 2.0 (d ** 1.5) in
    if aspect <= 1.0 then 0
    else int_of_float (ceil (d *. (log aspect /. log 2.0)))
  end

let achieved_delta_additive ~eps ~samples =
  if eps <= 0.0 || samples < 0 then invalid_arg "Cost.achieved_delta_additive";
  Float.min 1.0 (2.0 *. exp (-2.0 *. float_of_int samples *. eps *. eps))

let achieved_delta_ratio ~eps ~p_lower ~samples =
  if eps <= 0.0 || p_lower <= 0.0 || samples < 0 then
    invalid_arg "Cost.achieved_delta_ratio";
  Float.min 1.0 (2.0 *. exp (-.float_of_int samples *. eps *. eps *. p_lower /. 3.0))

let delta_at_work_ratio ~delta ~ratio =
  if delta <= 0.0 || delta >= 1.0 then invalid_arg "Cost.delta_at_work_ratio";
  if Float.is_nan ratio then Float.nan
  else if ratio <= 0.0 then 1.0
  else Float.min 1.0 (2.0 *. ((delta /. 2.0) ** ratio))

let volume_samples_per_phase ~eps ~delta ~phases =
  if phases = 0 then 0
  else begin
    let q = float_of_int phases in
    samples_for_ratio ~eps:(eps /. (2.0 *. q)) ~delta:(delta /. q) ~p_lower:0.5
  end

(* Calibrated against the DFK volume path (2-core x86-64, d = 2..7 with
   5..15 constraints): a predicted walk step cost 0.22-0.56 µs and one
   falling-factorial unit of the Lasserre recursion 0.18-4.7 µs, the
   unit getting cheaper as the recursion grows.  Where the choice is
   close (d = 6-7) a unit is 0.3-0.6 steps; an exact simplex is about
   m·d steps. *)
let lasserre_unit_steps = 0.5

let lasserre_work ~dim ~constraints =
  let m = float_of_int constraints and d = float_of_int dim in
  let falling = ref 1.0 in
  for i = 0 to dim - 1 do
    falling := !falling *. Float.max 0.0 (m -. float_of_int i)
  done;
  (lasserre_unit_steps *. !falling) +. (2.0 *. d *. m *. d)

let exact_volume_pays ~dim ~constraints ~sampled_work =
  constraints > 0 && lasserre_work ~dim ~constraints <= sampled_work

(* Volume_exact.default_max_tuples, which a test pins equal. *)
let max_exact_tuples = 16

let exact_union_pays ~dim ~constraints ~sampled_work =
  let m = List.length constraints in
  m >= 1 && m <= max_exact_tuples
  && List.for_all (fun k -> k > 0) constraints
  &&
  (* The unpruned worst case: one recursion per non-empty subset, over
     its members' summed constraints. *)
  let sums = List.fold_left (fun sums k -> sums @ List.map (( + ) k) (0 :: sums)) [] constraints in
  List.fold_left (fun acc k -> acc +. lasserre_work ~dim ~constraints:k) 0.0 sums <= sampled_work
