(** Static timing analysis — the conventional critical-path baseline the
    paper argues is inadequate for MTCMOS (§4: existing critical-path
    tools "do not take into account the virtual ground bounce associated
    with discharge currents").

    This is a classic vectorless topological timer: every gate gets a
    fixed first-order delay (Eq. 3 with an ideal ground), arrival times
    propagate along the DAG, and the critical path is the latest primary
    output.  It is exact for conventional CMOS under the first-order
    model and systematically wrong for MTCMOS — which the bench
    quantifies.

    It is the library's one static timer: the gated (selective-MTCMOS)
    view and the NLDM table timer ({!Nldm.sta}) run on the same
    {!propagate} and {!worst_output}, each with its own per-gate delay. *)

type t

type path = {
  endpoint : Netlist.Circuit.net;
  arrival : float;                      (** worst arrival at [endpoint] *)
  through : Netlist.Circuit.gate_id list;
      (** gates along the critical path, input side first *)
}

type gating = {
  vt_high : bool array;
      (** per gate: [true] selects the tech card's high-Vt (sleep) device
          pair for the cell, which then sits on the real ground *)
  block_of_gate : int array;
      (** per gate: sleep-cluster index, or [-1] for an ungated gate *)
  sleep_wl : float array;
      (** per cluster: W/L of the shared sleep device; a value [<= 0]
          means no device (the cluster's gates see an ideal ground) *)
}
(** Selective-MTCMOS view of a circuit for the timer.
    Low-Vt gates in a gated cluster are slowed by the cluster device's
    effective resistance under the co-discharge set of same-cluster,
    same-depth low-Vt gates — a discharge wave sweeps the DAG level by
    level, so that is the set pulling current through one device at
    once (the Fig. 8 N-inverter model under the pipeline-wave mutual
    exclusion [Hierarchy] documents).  Gates behind different devices
    never load each other's rail.  High-Vt gates pay the weaker drive
    of the sleep-card devices but see no virtual-ground bounce. *)

val propagate :
  Netlist.Circuit.t ->
  delay:(Netlist.Circuit.gate_inst -> float) ->
  float array
(** Per-net arrival times (0 at primary inputs and ties): each gate
    output at its latest input arrival plus [delay gate].  [delay] runs
    once per gate in topological order, so it may carry per-net state of
    its own (NLDM keeps its slews that way). *)

val worst_output :
  Netlist.Circuit.t -> float array -> Netlist.Circuit.net * float
(** The primary output with the latest arrival in a per-net array (the
    first one on ties), with that arrival.
    @raise Invalid_argument when the circuit has no outputs. *)

type timer
(** A circuit's per-gate timing terms for one body-effect setting, plus
    the last query's gate delays and net arrivals, and an exact memo of
    rail equilibria (1,024 entries, keyed on the device W/L bits and the
    group's member drives in id order; allocated on the first gated
    query).  A query re-prices only the gates whose Vt, rail or rail
    level changed, and re-propagates arrivals from the first of them
    on; answers equal a fresh {!analyze} bit for bit.  Mutable: one
    domain only. *)

val prepare : ?body_effect:bool -> Netlist.Circuit.t -> timer

val analyze_with : ?gating:gating -> timer -> t
(** Query the timer: an immutable copy of its delays and arrivals,
    which later queries leave as they are; queries below are
    O(1)/O(path).  Without [gating] this is the conventional timer:
    every cell low-Vt and in no cluster, so each sees an ideal ground.
    @raise Invalid_argument when the gating arrays do not cover every
    gate or a block index is out of range. *)

val analyze : ?body_effect:bool -> ?gating:gating -> Netlist.Circuit.t -> t
(** [analyze_with ?gating (prepare ?body_effect circuit)]. *)

val gate_delay : t -> Netlist.Circuit.gate_id -> float
(** The fixed per-gate delay used: worst of the pull-up and pull-down
    first-order delays into the gate's load. *)

val arrival : t -> Netlist.Circuit.net -> float
(** Worst-case arrival time at a net (0 at primary inputs and ties). *)

val critical_path : t -> path
(** The worst path to any primary output ({!worst_output}).
    @raise Invalid_argument when the circuit has no outputs. *)

val critical_arrival : t -> float
(** [(critical_path t).arrival] without tracing the path. *)

val mtcmos_underestimate :
  t ->
  Netlist.Circuit.t ->
  sleep:Breakpoint_sim.sleep_model ->
  vectors:Sizing.vector_pair list ->
  float
(** How far the static answer falls short of the vector-aware MTCMOS
    delay: [(worst simulated delay - STA critical arrival) / STA], the
    simulated side being {!Sizing.worst_delay_bp}.
    Positive means the timer is optimistic — the paper's §4 point. *)
