(** Cache-key derivation for the analysis modules, plus the one cached
    evaluator they share (a breakpoint simulation reduced to its scalar
    metrics).

    Keys are structural digests built with {!Eval.Key}: two evaluations
    get the same key exactly when circuit topology + device sizes, tech
    card, simulator config (sleep model, W/L, body effect, ...) and the
    vector pair all agree — so logically identical evaluations hit the
    cache regardless of call site (a [Sizing.sweep] can reuse what a
    [Search.hill_climb] computed). *)

val circuit_key : Netlist.Circuit.t -> string
(** Digest of the frozen circuit (see {!Eval.Key.circuit}), memoized on
    physical identity so repeated evaluations of the same circuit pay
    for the traversal once. *)

val bp_config_key : Breakpoint_sim.config -> string
(** Framed bytes for a breakpoint config — every field, including the
    sleep model, any [tech_override] and a {!Breakpoint_sim.partition}'s
    per-gate blocks and per-block devices.  Total: every config has a
    key. *)

val sp_config_key : Spice_ref.config -> string
(** Framed bytes for a transistor-level config, including the Newton
    budget (a different budget can produce a different — recovered vs
    failed — result), the time grid ([t_start]/[t_stop]/[dt], which
    Sizing derives from a circuit-dependent estimate) and the fast
    transient mode (fast-path results live in a different band than
    exact ones and must never be served across modes). *)

val vector_key : before:(int * int) list -> after:(int * int) list -> string
(** Framed bytes for an input transition. *)

val digest : tag:string -> string list -> string
(** Assemble framed parts under a distinguishing tag into the final
    16-byte key. *)

val bp_metrics :
  ?cache:Eval.Cache.t ->
  ?obs:Obs.t ->
  config:Breakpoint_sim.config ->
  Netlist.Circuit.t ->
  before:(int * int) list ->
  after:(int * int) list ->
  float option * float * float
(** One breakpoint simulation reduced to
    [(critical delay if any output switched, vx peak, peak discharge
    current)] — the three scalars Sizing (and through
    [Sizing.worst_delay_bp] Hierarchy, Sta and Selective), Search,
    Variation and Vectors consume.  Cached, keyed on circuit, config and
    vector, when a cache is given.
    @raise Failure as {!Breakpoint_sim.simulate} does (never
    cached). *)
