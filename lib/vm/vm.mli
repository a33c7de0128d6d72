(** Plan→kernel compiler: flat bytecode programs for the sampling task.

    [compile] lowers a finalized {!Scdb_plan.Plan.t} to one contiguous
    instruction array executed by a small register VM: constraint rows
    of every membership oracle are packed into a shared integer/float
    pool, union dispatch is jump-threaded off the Karp–Luby categorical
    draw, retry loops become backward jumps on trial counters, and
    convex leaves step chains through the structure-of-arrays walk
    kernel ({!Polytope.Kernel.Batch}) via its raw accessors.  The
    instruction set and operand layout are documented in DESIGN.md.

    The compiler covers the plans the pipeline builds: a single dfk
    leaf or a union of dfk leaves.  It makes no decisions of its own;
    it executes the plan's, in two modes:

    - {e strict} ([optimize:false], the default) compiles the plan as
      given and is a bit-exact mirror of the {!Observable} interpreter:
      starting from the same rng state and the same
      {!Convex_obs.prepared} pieces it consumes the identical draw
      sequence and emits the identical sample stream, so flight
      records replay across engines;
    - {e optimized} ([optimize:true]) first runs the plan rewrite pass
      {!Plan_obs.rewrite} (rejection-box substitution, shared duplicate
      union leaves), then compiles the rewritten plan.  Rewrites
      preserve the sampling distribution but not the rng stream.

    Either way the interpreter over the compiled plan
    ({!Plan_obs.observables}) is the bit-exact oracle: the weight
    prologues that seed union dispatch estimate volumes through that
    same tree, and the VM compiles only the per-draw hot path. *)

type t

val compile :
  ?optimize:bool ->
  plan:Scdb_plan.Plan.t ->
  pieces:Convex_obs.prepared array ->
  unit ->
  (t, string) result
(** Lower [plan] over its prepared convex pieces, given in preorder
    leaf order (the order {!Scdb_gis.Plan_build.of_relation} prepares
    them in); with [optimize:true], lower [Plan_obs.rewrite plan
    pieces] instead.  The compiler cross-checks the budgets recorded in
    the plan (union trials, walk schedules) against the
    {!Scdb_plan.Cost} formulas and refuses to compile on mismatch.
    [Sample] and [Report] tasks over dfk/union nodes are supported (the
    report task's volume estimation runs through {!mirror}); any other
    task or operator is an [Error]. *)

val optimized : t -> bool
val dim : t -> int

val instruction_count : t -> int
(** Number of decoded instructions (not code-array words). *)

type prof = {
  pcounts : int array;  (** per code word: executions of the instruction based there *)
  ptimes : float array;  (** per code word: accumulated wall ns (timing mode) *)
  ptiming : bool;  (** take clock reads around WALK/ENSURE/MEMBER/MEMPOLY *)
}
(** Profiling cells for {!sample_one}: both arrays must have
    {!code_words} entries.  Counting ([ptiming = false]) is exact and
    allocation-free — one array bump per executed instruction.  Timing
    additionally buckets monotonic-clock ns per pc, but only around the
    expensive opcodes, which is what keeps its overhead within the
    documented ≤5% budget on walk-bound programs (see DESIGN.md §10).
    [Scdb_profile.Profile] owns the ergonomic wrapper. *)

val sample_one : ?prof:prof -> t -> Rng.t -> Vec.t
(** One draw, with the interpreter's retry envelope: up to
    [max 4 ⌈20·ln(1/δ)⌉] root attempts, then
    @raise Observable.Estimation_failed like {!Observable.sample_exn}.
    [prof] fills profiling cells without changing the rng stream. *)

val sample_iter : ?prof:prof -> t -> Rng.t -> n:int -> (Vec.t -> unit) -> unit
(** The draw loop: [n] draws, each handed to the sink as it is drawn;
    mirrors {!Observable.sample_iter}. *)

val sample_many : ?prof:prof -> t -> Rng.t -> n:int -> Vec.t list
(** The draws of {!sample_iter}, collected into a list in draw order. *)

val mirror : t -> Observable.t
(** The interpreted tree of the compiled plan
    ({!Plan_obs.observables}: the rewritten plan under [optimize:true]).
    The weight prologues estimate through it; [report --engine vm|vm-opt]
    runs its volume estimate here. *)

val weights : t -> Rng.t -> float array array
(** The Karp–Luby weights of every union, in weight-slot order (copies).
    A slot whose prologue has not run yet runs it now on [rng], drawing
    exactly what the first {!sample_one} would have drawn for it. *)

(** {1 Symbolization}

    The compiler records, for every code word, the plan-node id whose
    codegen emitted it plus the rewrite tag of that node
    ({!Scdb_plan.Plan.rewrite_tag}: [rejection_box_substituted],
    [shared_union_leaf]; a union carries [shared_union_leaf] on its
    weight prologue when it shares weights).  {!disassemble} annotates
    each line with both; the profiler folds per-pc counts through this
    table into per-node attribution rows. *)

val code_words : t -> int
(** Length of the code array — the domain of {!prof} cells and pcs. *)

val instruction_bases : t -> int array
(** Base pc of every instruction, ascending. *)

val opcode_at : t -> int -> int
(** Opcode int at a base pc. *)

val opcode_name : int -> string
(** Lower-case mnemonic ("emit", "walk", ...); total. *)

val num_opcodes : int

val node_at : t -> int -> int
(** Originating plan-node id of the code word at [pc]. *)

val tag_at : t -> int -> string option
(** Rewrite tag of the code word at [pc], if any. *)

val rewrite_tags : t -> (int * string list) list
(** Per plan-node id, the distinct rewrite tags on its instructions
    (nodes without tags omitted; sorted by id). *)

val disassemble : t -> string
(** Human-readable program listing: piece table, weight/trial slots,
    then one line per instruction annotated with its plan node and
    rewrite tag ([explain --format program]). *)
