(** Hierarchical sleep-device assignment.

    Instead of one shared sleep transistor, gates can be grouped into
    blocks with private devices; gates that never discharge together
    then stop loading each other's rail, and the total sleep width
    needed for a delay target drops.  This is the direction of the
    authors' follow-up ("MTCMOS Hierarchical Sizing Based on Mutual
    Exclusive Discharge Patterns"); here it serves as a built-in
    extension and an ablation against the single shared device. *)

val by_level : Netlist.Circuit.t -> blocks:int -> int array
(** Each gate's band, indexed by gate id: gates are partitioned by
    topological depth into [blocks] equal bands — pipeline stages
    discharge at different times, so banding by level approximates
    mutual exclusion.  This is a {!Breakpoint_sim.partition}'s
    [block_of_gate].

    Degenerate edge: when [blocks] exceeds the circuit's logic depth the
    pigeonhole principle leaves some bands with no gates at all (e.g. a
    single-gate circuit maps every gate to band 0 whatever [blocks] is).
    The mapping is still total and in-range; consumers that size one
    device per band must tolerate empty bands — [Selective] compacts
    them away rather than sizing a device for zero gates.  Use
    {!populations} to see which bands are populated.
    @raise Invalid_argument when [blocks < 1]. *)

val populations : Netlist.Circuit.t -> blocks:int -> int array
(** Gate count of each {!by_level} band; entries may be 0 when
    [blocks] exceeds the logic depth. *)

val config :
  Device.Tech.t ->
  Netlist.Circuit.t ->
  wl_per_block:float ->
  blocks:int ->
  Breakpoint_sim.config
(** Simulator config with a level-banded partition: [blocks] identical
    sleep devices of W/L [wl_per_block] each.
    @raise Invalid_argument when [blocks < 1]. *)

val size_uniform_for_degradation :
  Netlist.Circuit.t ->
  vectors:Sizing.vector_pair list ->
  target:float ->
  blocks:int ->
  float
(** Smallest per-block W/L meeting the degradation target with a
    level-banded partition of [blocks] devices.  Total sleep width is
    [blocks * result]; compare against [Sizing.size_for_degradation]'s
    single shared device.  The bisection
    ({!Sizing.smallest_feasible}) runs over W/L [[0.5, 4096]].
    @raise Not_found when infeasible at W/L 4096. *)
