(** First-order MTCMOS gate delay (Eq. 3 of the paper).

    A discharging gate is a constant current source [I_j(vx)] emptying
    its load [cl] from [vdd]; [t_pd = cl * vdd / (2 * I_j)].  This is
    the per-gate model the variable-breakpoint simulator advances in
    piecewise-linear segments. *)

type t = {
  vg : Vground.config;
  pmos : Device.Alpha_power.t;
  vdd : float;
}

val of_tech : ?body_effect:bool -> Device.Tech.t -> t

val discharge_slope :
  t -> vx:float -> beta_wl:float -> vin:float -> cl:float -> float
(** dV/dt (negative) of a falling output while the virtual ground sits
    at [vx]. *)

val charge_slope : t -> wl_pull_up:float -> cl:float -> float
(** dV/dt (positive) of a rising output; the pull-up path does not see
    the sleep device (§2.1). *)

val fall_delay : t -> vx:float -> beta_wl:float -> cl:float -> float
(** 50 % falling delay [cl * vdd / (2 * I(vx))] of a pull-down of
    [beta_wl] while its source rail sits at [vx]; [infinity] when the
    gate draws no current.  The one gate-delay formula: every static
    timer and sizer goes through it or {!rise_delay}. *)

val rise_delay : t -> wl_pull_up:float -> cl:float -> float
(** 50 % rising delay through the pull-up, which never sees the sleep
    device (§2.1). *)

val cmos_gate_delay : t -> beta_wl:float -> cl:float -> float
(** {!fall_delay} with an ideal ground ([vx = 0]). *)

val mtcmos_gate_delay :
  t -> r:float -> others_beta_wl:float list -> beta_wl:float -> cl:float ->
  float
(** Delay of one gate while [others_beta_wl] gates discharge through the
    same sleep resistance simultaneously — the N-inverter model of
    Fig. 8. *)
