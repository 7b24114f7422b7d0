(** Convenience bridge to the transistor-level engine: run a gate-level
    circuit through {!Netlist.Expand} + {!Spice.Engine} for one input
    transition, in the same vocabulary the breakpoint simulator uses.

    This is the "more detailed simulator like SPICE" the paper verifies
    its tool against (§6). *)

type config = {
  sleep : Breakpoint_sim.sleep_model;
  cx_extra : float;        (** extra virtual-ground capacitance (§2.2) *)
  pmos_header : bool;      (** PMOS header / virtual Vdd instead of the
                               NMOS footer *)
  t_start : float;         (** input edges begin here *)
  t_stop : float;          (** simulation horizon (default 6 ns) *)
  dt : float option;       (** time step; default [t_stop / 3000] *)
  newton_budget : int option;
      (** engine Newton budget (default [None]; see
          {!Spice.Engine.Opts.t}) *)
  fast : Spice.Engine.Opts.fast;
      (** fast transient path (default [`Off]; see
          {!Spice.Engine.Opts.fast}) *)
}

val default_config : config

val input_ramp : float
(** Rise/fall time of every input edge, 50 ps. *)

type run

val run :
  ?config:config ->
  Netlist.Circuit.t ->
  before:Netlist.Signal.level array ->
  after:Netlist.Signal.level array ->
  run
(** @raise Invalid_argument on [X] inputs.
    @raise Spice.Engine.No_convergence when the engine gives up. *)

val run_ints_r :
  ?config:config ->
  ?obs:Obs.t ->
  Netlist.Circuit.t ->
  before:(int * int) list ->
  after:(int * int) list ->
  (run, Spice.Diag.failure) result

val run_ints :
  ?config:config ->
  Netlist.Circuit.t ->
  before:(int * int) list ->
  after:(int * int) list ->
  run

val net_waveform : run -> Netlist.Circuit.net -> Phys.Pwl.t
(** A run records the primary outputs and inputs (and the virtual rail).
    @raise Not_found for any other net. *)

val vground_waveform : run -> Phys.Pwl.t option
(** [None] for a conventional-CMOS run. *)

val vx_peak : run -> float
(** 0 for a conventional-CMOS run. *)

val peak_sleep_current : run -> float

val net_delay : run -> Netlist.Circuit.net -> float option
(** {!Spice.Measure.net_delay} of the net's waveform, the definition
    [Breakpoint_sim.net_delay] uses too. *)

val critical_delay : run -> (Netlist.Circuit.net * float) option
val newton_iterations : run -> int

val telemetry : run -> Spice.Diag.telemetry
(** Solver-effort counters and recovery strategies fired for this run. *)
