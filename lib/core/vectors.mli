(** Input-vector space exploration (§2.4, §4, §6.2).

    The tool's headline use case: sweep a large vector space with the
    fast simulator, rank transitions by MTCMOS susceptibility, and hand
    the suspicious few to the detailed simulator. *)

type pair = (int * int) list * (int * int) list
(** A transition, as [Netlist.Circuit.pack_ints] groups. *)

val all_pairs : widths:int list -> pair Seq.t
(** Every (before, after) combination over the packed input groups —
    [2^(2*sum widths)] elements, produced lazily. *)

val enumerate_pairs : widths:int list -> pair list
(** Strict version of {!all_pairs}.
    @raise Invalid_argument when the space exceeds 2^22 pairs. *)

val random_pairs : ?seed:int -> widths:int list -> int -> pair list
(** Uniform sample of the pair space for circuits too wide to
    enumerate. *)

val label : pair -> string
(** ["(b1,b2)->(a1,a2)"]: the group values of both sides, as resilience
    reports name a skipped vector. *)

type ranking = {
  pair : pair;
  delay : float;              (** MTCMOS critical delay *)
  cmos_delay : float;
  degradation : float;
  vx_peak : float;
}

val rank :
  Netlist.Circuit.t ->
  sleep:Breakpoint_sim.sleep_model ->
  pairs:pair list ->
  ranking list
(** Simulate every pair with the breakpoint simulator (CMOS baseline per
    pair), sorted worst degradation first.  Pairs that produce no output
    transition are dropped.  A cache in [?ctx] memoizes the per-pair
    simulations (shared with [Search]'s breakpoint oracle, which runs
    the same (config, vector) points). *)

val worst :
  ?ctx:Eval.Ctx.t ->
  Netlist.Circuit.t ->
  sleep:Breakpoint_sim.sleep_model ->
  pairs:pair list ->
  top:int ->
  ranking list
(** The [top] worst entries of {!rank}. *)

val involving_output :
  Netlist.Circuit.t -> net:Netlist.Circuit.net -> pairs:pair list ->
  pair list
(** Restrict to transitions that flip the steady-state value of a given
    output (Fig. 14 restricts to S2 transitions). *)
