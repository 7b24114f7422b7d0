(** Virtual-ground equilibrium (Eq. 4–5 of the paper).

    With N gates discharging simultaneously through the shared sleep
    device, the virtual ground settles where the sleep current equals
    the sum of the gates' saturation currents, each reduced by the lost
    gate drive [vdd - vx] and by the body effect on the pulldown
    NMOS. *)

type gate_drive = {
  beta_wl : float;  (** equivalent-inverter pulldown W/L *)
  vin : float;      (** gate voltage driving the pulldown (usually vdd) *)
}

type config = {
  model : Device.Alpha_power.t;  (** low-Vt NMOS alpha-power card *)
  vdd : float;
  body_effect : bool;
}

val config :
  ?body_effect:bool -> Device.Tech.t -> config
(** Card derived from a technology (body effect on by default). *)

val gate_current : config -> vx:float -> gate_drive -> float
(** Saturation current of one discharging gate when the virtual ground
    sits at [vx]. *)

val total_current : config -> vx:float -> gate_drive list -> float

val solve_resistor : config -> r:float -> gate_drive list -> float
(** Equilibrium [vx] with the sleep device modelled as a resistor [r]
    (Fig. 8).  Returns 0 when nothing is discharging. *)

val solve_device : config -> sleep:Device.Sleep.t -> gate_drive list -> float
(** Equilibrium against the sleep transistor's real I–V curve; exact
    where {!solve_resistor} linearises. *)

val solve_quadratic : config -> r:float -> gate_drive list -> float
(** Closed form of the paper's Eq. 5: alpha = 2, no body effect.
    Used to cross-check the numeric solvers.
    @raise Invalid_argument when the config has alpha <> 2 or body
    effect enabled. *)
