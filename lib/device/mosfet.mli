(** Level-1 (Shichman–Hodges) MOSFET model with body effect,
    channel-length modulation and a smooth weak-inversion tail.

    Voltages follow device convention for an NMOS: [vgs], [vds], [vbs]
    measured at the terminals.  PMOS devices are evaluated by the same
    equations after negating all voltages and the resulting current (see
    {!eval}).  Negative [vds] is handled by the source/drain symmetry of
    the device, which matters for the reverse-conduction paths of §2.3 of
    the paper. *)

type polarity = Nmos | Pmos

type params = {
  polarity : polarity;
  vt0 : float;     (** zero-bias threshold, positive for both polarities *)
  kp : float;      (** transconductance [mu * Cox], A/V^2 *)
  gamma : float;   (** body-effect coefficient, V^0.5 *)
  phi : float;     (** surface potential 2*phi_F, V *)
  lambda : float;  (** channel-length modulation, 1/V *)
  n_sub : float;   (** subthreshold slope factor *)
  i0 : float;      (** subthreshold current at vgs = vth for W/L = 1, A *)
}

type bias = { vgs : float; vds : float; vbs : float }
(** Terminal voltages in the device's own polarity convention (an NMOS
    view; {!eval} converts PMOS biases internally). *)

type operating_point = {
  ids : float;  (** drain current, positive flowing drain->source (NMOS) *)
  gm : float;   (** d ids / d vgs *)
  gds : float;  (** d ids / d vds *)
  gmb : float;  (** d ids / d vbs *)
  vth : float;  (** threshold including body effect *)
}

val eval : params -> wl:float -> bias -> operating_point
(** [eval p ~wl bias] evaluates the device of size [wl = W/L].  For a PMOS
    device pass the physical terminal voltages; the conversion to the
    internal convention (and back for the current and conductances) is
    performed here. *)

val ids : params -> wl:float -> bias -> float
(** Just the current. *)

val saturation_current : params -> wl:float -> vgs:float -> vbs:float -> float
(** Current with the device pinned in saturation (used by the first-order
    delay model). *)

val linear_resistance : params -> wl:float -> vgs:float -> float
(** Small-[vds] channel resistance 1 / (kp * wl * (vgs - vt0)); the
    finite-resistance approximation of §2.1.
    @raise Invalid_argument when the device is off ([vgs <= vt0]). *)
