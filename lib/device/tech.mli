(** Technology cards.

    The paper runs its examples on two processes and publishes only
    (Vdd, Vtn, Vtp, Vt_high, Lmin) for each; the remaining card entries
    here are generic textbook values for those nodes (see DESIGN.md,
    substitutions table). *)

type t = {
  name : string;
  vdd : float;           (** nominal supply, V *)
  lmin : float;          (** minimum channel length, m *)
  nmos : Mosfet.params;  (** low-Vt NMOS *)
  pmos : Mosfet.params;  (** low-Vt PMOS *)
  sleep_nmos : Mosfet.params;  (** high-Vt NMOS *)
  sleep_pmos : Mosfet.params;  (** high-Vt PMOS *)
  alpha : float;         (** velocity-saturation exponent for this node *)
  cg_per_wl : float;     (** gate capacitance per unit W/L, F *)
  cj_per_wl : float;     (** drain-junction capacitance per unit W/L, F *)
  cwire : float;         (** wire capacitance per fanout connection, F *)
  wl_n_unit : float;     (** W/L of the NMOS in a unit-strength inverter *)
  wl_p_unit : float;     (** W/L of the PMOS in a unit-strength inverter *)
}

val mtcmos_07um : t
(** The 0.7 µm card of §3 and §6 (Vdd 1.2 V, Vtn 0.35 V, Vtp −0.35 V,
    Vt_high 0.75 V) used by the inverter-tree and ripple-adder
    experiments. *)

val mtcmos_03um : t
(** The 0.3 µm card of §4 (Vdd 1.0 V, Vtn 0.2 V, Vtp −0.2 V, Vt_high
    0.7 V) used by the multiplier experiments. *)

val mtcmos_018um : t
(** A synthetic 0.18 µm card (Vdd 0.9 V, Vtn 0.18 V, Vt_high 0.6 V)
    extending the paper's scaling trajectory one node further — used by
    the design-space bench to extrapolate §2.1's claim. *)

val with_vdd : t -> float -> t
(** Derived card at a different supply (the tool's Vdd design variable). *)

val with_vt_shift : t -> float -> t
(** Derived card with all low-Vt thresholds shifted by the given amount
    (the tool's Vt design variable). *)

val with_alpha : t -> float -> t

val nmos_alpha : t -> Alpha_power.t
(** Alpha-power card for the low-Vt NMOS (used by the breakpoint
    simulator's discharge model). *)

val pmos_alpha : t -> Alpha_power.t
