(** The naive sizing baselines the paper argues against (§2, §4).

    Both produce large over-estimates on realistic circuits; the bench
    harness quantifies by how much against the simulator-driven size. *)

val sum_of_widths : Netlist.Circuit.t -> float
(** "Sum the widths of internal low-Vt transistors": sleep W/L equal to
    the total equivalent pull-down W/L of the circuit. *)

val peak_current_wl :
  Device.Tech.t -> i_peak:float -> v_budget:float -> float
(** "Design for peak current": the W/L whose effective resistance keeps
    the virtual ground below [v_budget] at a {e sustained} [i_peak] —
    the paper's example (§4) holds a 1.174 mA peak to 50 mV.
    @raise Invalid_argument on non-positive arguments. *)

val peak_current_of_transition :
  Netlist.Circuit.t ->
  before:(int * int) list ->
  after:(int * int) list ->
  float
(** Peak total discharge current of a transition with an ideal ground
    (conventional-CMOS conditions), from the breakpoint simulator with
    the body effect on. *)

val v_budget_for_degradation :
  Device.Tech.t -> target:float -> float
(** First-order translation of a delay-degradation budget into a
    virtual-ground budget: a bounce of [vx] costs roughly
    [alpha * vx / (vdd - vt)] in drive, so
    [v_budget = target * (vdd - vt) / alpha]. *)
