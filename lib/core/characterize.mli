(** Standard-cell-style characterisation of the gate library against the
    transistor-level engine: delay vs. output load and input ramp, per
    gate kind.

    Two uses: (a) the data a downstream timing flow would consume, and
    (b) a single calibration factor that maps the switch-level
    simulator's first-order delays onto transistor-level time — the
    "improve the simulator accuracy" direction of §5.3/§6.3.

    Entry points take [?ctx:Eval.Ctx.t]; the context supplies the
    Newton budget, stats accumulator, worker count and evaluation
    cache (operating points are cached per (tech card, gate kind, load,
    ramp, Newton budget), so re-characterising a grid is nearly free). *)

type point = {
  cl : float;           (** output load, F *)
  ramp : float;         (** input transition time, s *)
  fall_delay : float;   (** input-rise to output-fall 50/50, s *)
  rise_delay : float;   (** input-fall to output-rise 50/50, s *)
  fall_slew : float;    (** 90-10 %% output fall time, s *)
  rise_slew : float;    (** 10-90 %% output rise time, s *)
}

val measure :
  Device.Tech.t -> Netlist.Gate.kind -> cl:float -> ramp:float -> point
(** One fixture run at one operating point.  A transient that fails
    even after recovery yields NaN delay/slew entries (recorded with
    its diagnosis in the stats accumulator) instead of raising. *)

val gate :
  ?ctx:Eval.Ctx.t ->
  ?loads:float list ->
  ?ramps:float list ->
  Device.Tech.t ->
  Netlist.Gate.kind ->
  point list
(** Characterise one kind (default loads 10/20/50/100 fF, ramps
    20/100 ps).  The gate's side inputs are tied so the first pin
    controls.  [jobs] (default 1) spreads the loads x ramps grid over
    that many domains; points come back in loads-major order and the
    list (and stats totals) is identical whatever [jobs] is, and
    whatever the cache already holds. *)

val calibration_factor : ?loads:float list -> Device.Tech.t -> float
(** Mean transistor-level / first-order fall-delay ratio of an inverter
    across loads; multiply switch-level delays by it to report in
    transistor-level time.  (Degradation percentages are ratio-based and
    need no calibration.) *)

val pp_point : Format.formatter -> point -> unit
