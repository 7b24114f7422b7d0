(** Sleep-mode entry/exit dynamics.

    While asleep the virtual ground floats toward Vdd through the idle
    pulldown networks; on wake the sleep transistor must sink that
    charge before the block runs at speed.  Wake-up latency therefore
    also scales with sleep-device size — a second argument (besides
    delay degradation) for sizing it deliberately. *)

type estimate = {
  rail_capacitance : float;  (** effective virtual-ground capacitance, F *)
  v_float : float;           (** rail voltage reached during sleep, V *)
  analytic : float;
      (** first-order wake time: C * v_float / I_sat(sleep), s *)
}

val estimate : Netlist.Circuit.t -> wl:float -> estimate
(** Closed-form estimate. *)

val simulate : Netlist.Circuit.t -> wl:float -> float
(** Transistor-level wake-up: the block sits in sleep mode (rail
    floated), the sleep gate ramps at [t = 1 ns]; returns the time from
    the gate edge until the virtual ground falls below 10 % of Vdd.
    @raise Not_found when the rail never settles within 20 ns. *)
