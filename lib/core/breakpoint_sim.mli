(** The variable-breakpoint switch-level simulator (§5.2 of the paper).

    Every gate is collapsed to an equivalent inverter that drives its
    lumped load with a piecewise-constant current: a charging output is
    sourced by the pull-up's saturation current, a discharging output is
    sunk by the pull-down's saturation current {e reduced by the
    virtual-ground bounce} shared with every other discharging gate.
    Gates begin switching when an input crosses [vdd / 2].

    Breakpoints — instants where any output crosses the switching
    threshold or reaches a rail — are the only simulation times; at each
    one the discharging set changes, the virtual-ground equilibrium is
    re-solved and every active slope and predicted breakpoint is
    recomputed (Fig. 9's bookkeeping). *)

type sleep_model =
  | Cmos                          (** ideal ground: a conventional circuit *)
  | Resistor of float             (** the Fig. 2 finite-resistance model *)
  | Sleep_fet of Device.Sleep.t   (** the real high-Vt device I–V *)

type rail_side =
  | Gnd_switch  (** NMOS footer: a virtual ground, falling edges gated *)
  | Vdd_switch  (** PMOS header: a virtual Vdd, rising edges gated *)

type partition = {
  block_of_gate : int array;
      (** each gate's block, indexed by gate id (the layout of
          [Sta.gating.block_of_gate]); one entry per gate, each an index
          into [sleeps] *)
  sleeps : sleep_model array;  (** one device per block, at least one *)
}
(** Hierarchical-MTCMOS extension: gates are grouped into blocks, each
    returning to its own virtual-ground rail and sleep device.  Gates in
    different blocks no longer share discharge current — the
    mutual-exclusion idea the authors developed in their follow-up work.
    A partition is plain data: {!Cached.bp_config_key} digests it.  It is
    checked once when a simulation starts, whether or not a gate ever
    switches. *)

type config = {
  sleep : sleep_model;  (** the shared device when [partition] is [None] *)
  body_effect : bool;   (** model the bounced source's body effect *)
  partition : partition option;
      (** when set, overrides [sleep] with per-block devices *)
  tech_override : Device.Tech.t option;
      (** simulate against a different technology card than the one the
          circuit was built with (process-variation studies, or another
          velocity-saturation exponent via [Device.Tech.with_alpha]);
          load capacitances keep the construction-time values. *)
  rail : rail_side;
      (** which rail the sleep device gates (default [Gnd_switch]; the
          paper's §1 notes the NMOS footer is preferable and the PMOS
          header exists — this lets the claim be measured). *)
}
(** The model is the paper's quasi-static one: each rail sits at its
    equilibrium between breakpoints, idle outputs stay at the rails, and
    a gate starts switching the instant its input crosses [vdd / 2].
    The §5.3 refinements (rail capacitance, input-slope onset delay,
    reverse conduction) are not modelled: each one broke the law that a
    larger sleep device never slows the circuit.  The primary inputs
    always flip at [t = 0]. *)

val default_config : config
(** [Cmos] sleep model, body effect on, no partition, the circuit's own
    card, [Gnd_switch]. *)

val mtcmos_config : Device.Tech.t -> wl:float -> config
(** Config with an NMOS footer of size [wl] built from the technology's
    high-Vt card. *)

val mtcmos_pmos_config : Device.Tech.t -> wl:float -> config
(** Config with a PMOS header of size [wl]: the virtual rail is Vdd and
    rising transitions are the gated ones. *)

type result

val simulate :
  ?config:config ->
  Netlist.Circuit.t ->
  before:Netlist.Signal.level array ->
  after:Netlist.Signal.level array ->
  result
(** Simulate the input transition [before -> after] (primary-input
    assignments in [Circuit.inputs] order, no [X] allowed).

    Safe to call from several domains and from daemon systhreads at
    once, and its result does not depend on call history: the
    per-circuit constants and the rail equilibria it keeps across calls
    are exact, so any call order gives the same bits.
    @raise Invalid_argument on [X] inputs, length mismatches, or a
    {!partition} with no device, the wrong length or a block out of
    range.
    @raise Failure naming the time when every gate still in transition
    has stopped moving: the rail sits so close to the other supply that
    no gated edge has current left, which takes a sleep device many
    orders of magnitude too small (W/L 1e-30 on [adder8]; W/L 1e-9
    still finishes).  Also [Failure] past 1,000,000 breakpoints, a hang
    guard no physical circuit reaches. *)

val simulate_ints :
  ?config:config ->
  ?obs:Obs.t ->
  Netlist.Circuit.t ->
  before:(int * int) list ->
  after:(int * int) list ->
  result
(** {!simulate} on [Netlist.Circuit.pack_ints] of each side.  [obs]
    (default [Obs.disabled]) records a ["bp.simulate"] span and the
    [bp.simulations] / [bp.events] / [bp.rail_solves] counters
    ([bp.rail_solves]: the rail equilibria this simulation needs, reuses
    within it excluded).
    @raise Invalid_argument as [Netlist.Circuit.pack_ints] does. *)

val waveform : result -> Netlist.Circuit.net -> Phys.Pwl.t
(** Piecewise-linear output voltage of a net. *)

val vground_waveform : result -> Phys.Pwl.t
(** The stepwise virtual-ground voltage (worst rail under a
    partition). *)

val vground_waveform_block : result -> int -> Phys.Pwl.t
(** Per-block rail under a {!partition} (block 0 without one).
    @raise Invalid_argument on an out-of-range block. *)

val vx_peak : result -> float

val discharge_current_waveform : result -> Phys.Pwl.t
(** Stepwise total current sunk by the discharging set — the quantity
    the peak-current sizing baseline of §4 keys on. *)

val peak_discharge_current : result -> float

val t_finish : result -> float
(** Time of the last breakpoint. *)

val events : result -> int
(** Number of processed breakpoints. *)

val net_delay : result -> Netlist.Circuit.net -> float option
(** {!Spice.Measure.net_delay} of the net's waveform: the input step at
    [t = 0] to its last [vdd/2] crossing; [None] when the net never
    switched. *)

val critical_delay : result -> (Netlist.Circuit.net * float) option
(** Worst {!net_delay} over the primary outputs. *)
