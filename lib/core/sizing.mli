(** The sleep-transistor sizing methodology: the area/performance
    trade-off the paper's tool exists to navigate.

    A sizing question is always posed against a set of input transitions
    (because the worst-case vector depends on the sleep size itself,
    §2.4): the delay at a given W/L is the worst critical delay over the
    vector set.  Under the transistor-level engine, a vector whose
    transient switches no output reads as delay 0 when the switch-level
    run of the vector switches none either, and as an infinite delay
    (which meets no target) when it does: the sleep device is then too
    small for the transition to finish within the simulated window.

    Every entry point takes [?ctx:Eval.Ctx.t] — engine, body effect,
    Newton budget, fast transient mode, stats accumulator, worker
    count and evaluation cache in one record.  With a cache in the
    context, repeated evaluations of the same (circuit, config, vector,
    W/L) point — across [delay_at] calls, sweep points, bisection
    probes, even different modules — are served from memory with
    identical results and replayed resilience counters. *)

type vector_pair = (int * int) list * (int * int) list
(** [(before, after)] in [Netlist.Circuit.pack_ints] groups. *)

type measurement = {
  wl : float;
  cmos_delay : float;         (** ideal-ground delay, same engine *)
  mtcmos_delay : float;
  degradation : float;        (** (mtcmos - cmos) / cmos *)
  vx_peak : float;
}

val worst_delay_bp :
  ?obs:Obs.t ->
  config:Breakpoint_sim.config ->
  Netlist.Circuit.t ->
  vector_pair list ->
  float * float
(** [(worst critical delay, worst vx peak)] of the breakpoint simulator
    over a vector set (0 when nothing switches), via {!Cached.bp_metrics}:
    the one worst-over-vectors loop, also behind [Sta] and
    [Selective.bounce]. *)

val feasibility_bp :
  Netlist.Circuit.t ->
  vector_pair list ->
  base:float ->
  target:float ->
  Breakpoint_sim.config ->
  bool
(** [feasibility_bp c vectors ~base ~target] is a probe: applied to a
    config, it tells whether every vector's breakpoint degradation
    [(d - base) / base] is at most [target].  It stops simulating at
    the first vector that misses, and tries the vectors worst first by
    their most recently simulated delay (ties in input order), so keep
    one probe for a whole bisection.  The answer equals
    [(fst (worst_delay_bp ~config c vectors) - base) / base <= target]
    bit for bit: the test is monotone in [d] in floating point, and no
    assumption about how delay moves with W/L is made.  The sizing
    bisections of {!size_for_degradation} (breakpoint engine) and
    [Hierarchy.size_uniform_for_degradation] probe with it.
    @raise Invalid_argument when [target] is NaN. *)

val smallest_feasible : lo:float -> hi:float -> (float -> bool) -> float
(** The one sizing bisection ({!size_for_degradation}, [Hierarchy],
    [Selective]): the smallest [feasible] W/L in [[lo, hi]], by
    geometric midpoints until [hi / lo <= 1.01] or 60 halvings.  The
    caller has checked [feasible hi]; [lo] is probed first, then the
    midpoints, so the probe sequence is fixed. *)

val delay_at :
  ?ctx:Eval.Ctx.t ->
  Netlist.Circuit.t ->
  vectors:vector_pair list ->
  wl:float ->
  measurement
(** Worst-case measurement over [vectors] at one sleep size.  [jobs]
    (from the context, default 1) spreads the per-vector
    transistor-level analyses over that many domains via [Par.Pool];
    the measurement and the stats totals are identical whatever [jobs]
    is, and whatever the cache already holds.

    With {!Eval.Spice_level} in the context, every function here is
    fault-tolerant: a vector whose transient fails even after the
    engine's recovery ladder is recorded as a skipped sample (with its
    structured diagnosis) in the stats accumulator and replaced by the
    breakpoint-simulator estimate, instead of aborting the sweep.
    @raise Invalid_argument on an empty vector list. *)

val cmos_delay :
  ?ctx:Eval.Ctx.t ->
  Netlist.Circuit.t ->
  vectors:vector_pair list -> float
(** Ideal-ground baseline delay. *)

val sweep :
  ?ctx:Eval.Ctx.t ->
  Netlist.Circuit.t ->
  vectors:vector_pair list ->
  wls:float list ->
  measurement list
(** One measurement per W/L, sharing the CMOS baseline.  [jobs]
    distributes the W/L points over that many domains; results come
    back in [wls] order and are bit-for-bit identical to the
    sequential run (deterministic chunked scheduling, worker-order
    accumulator merge — see [Par.Pool]).  A cache shared across the
    workers is mutex-guarded; hit/miss counts may vary with
    scheduling, the measurements never do. *)

val size_for_degradation :
  ?ctx:Eval.Ctx.t ->
  ?wl_hi:float ->
  Netlist.Circuit.t ->
  vectors:vector_pair list ->
  target:float ->
  float
(** Smallest W/L whose degradation is at most [target] (e.g. 0.05 for
    the paper's 5 % budget), found by bisection over
    [0.5, wl_hi] (default 4096) with {!smallest_feasible}.  With a cache in the
    context the repeated baseline and probe evaluations hit across
    calls (and across [sweep]/[delay_at] of the same points).
    With the breakpoint engine each probe runs {!feasibility_bp}, which
    stops at the first vector that misses the target, so a cache in the
    context receives fewer entries (and sees fewer misses) than the
    vectors times the probes; the answer is unchanged.  The
    transistor-level engine simulates every vector at every probe.
    @raise Not_found when even [wl_hi] misses the target.
    @raise Invalid_argument when [target] is NaN.
    @raise Failure when no vector switches an output (the ideal-ground
    delay is 0, so degradation is undefined). *)

val pp_measurement : Format.formatter -> measurement -> unit
