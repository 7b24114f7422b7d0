(** Sleep-transistor model: the high-Vt series device of Fig. 1 and its
    finite-resistance approximation (§2.1). *)

type t = {
  params : Mosfet.params;  (** high-Vt device card *)
  wl : float;              (** W/L of the sleep transistor *)
  vdd : float;             (** gate drive in active mode *)
}

val make : Mosfet.params -> wl:float -> vdd:float -> t
(** @raise Invalid_argument when [wl <= 0] or the device cannot turn on
    ([vdd <= vt0]). *)

val nmos_footer : Tech.t -> wl:float -> t
(** The technology's high-Vt NMOS footer of size [wl], gate at [vdd]:
    [make tech.sleep_nmos ~wl ~vdd:tech.vdd].
    @raise Invalid_argument as {!make}. *)

val of_pmos : Mosfet.params -> wl:float -> vdd:float -> t
(** A PMOS header device (virtual-Vdd gating, gate at 0 V in active
    mode), folded into the same NMOS-convention record: magnitudes of
    current and drop are what the solvers consume.
    @raise Invalid_argument as {!make}, or when the card is not PMOS. *)

val effective_resistance : t -> float
(** Small-signal channel resistance at [vds ~ 0] with the gate at [vdd]:
    [1 / (kp * wl * (vdd - vt_high))].  This is the [R] of Fig. 2. *)

val vds_at_current : t -> float -> float
(** [vds_at_current s i] solves the full triode equation for the
    source-drain drop at current [i]; exact where
    [effective_resistance *. i] is only first-order.  Returns [vdd] (a
    saturated, starved sleep device) when [i] exceeds the saturation
    current. *)

val current_at_vds : t -> float -> float
(** Channel current at a given drop, gate at [vdd]. *)

val wl_for_resistance : Mosfet.params -> vdd:float -> r:float -> float
(** Size that realises a target effective resistance. *)

val area_cost : t -> lmin:float -> float
(** Silicon area of the device, [W * L = wl * lmin^2], in m^2 — the cost
    side of the paper's area/performance trade-off. *)

val switching_energy : t -> cg_per_wl:float -> float
(** Energy to toggle the sleep gate once, [0.5 * Cg * vdd^2] with
    [Cg = cg_per_wl * wl]; grows linearly with sizing (§2.1 names the
    switching-energy overhead as a limit on upsizing). *)
