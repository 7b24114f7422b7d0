(** Sakurai–Newton alpha-power-law MOSFET model (refs [1][2] of the paper).

    The switch-level simulator's first-order delay model treats every
    discharging gate as a saturation current source
    [I = (beta / 2) * (vgs - vth) ** alpha]; [alpha = 2] recovers the
    square law, [alpha < 2] models velocity saturation.  The delay that
    current implies (Eq. 3) is [Mtcmos.Delay_model]'s. *)

type t = {
  alpha : float;   (** velocity-saturation exponent, in (1, 2] *)
  beta : float;    (** gain factor for W/L = 1, A/V^alpha *)
  vt0 : float;     (** zero-bias threshold voltage, V *)
  gamma : float;   (** body-effect coefficient (0 disables), V^0.5 *)
  phi : float;     (** surface potential used by the body effect, V *)
}

val of_level1 : Mosfet.params -> alpha:float -> t
(** Derive an alpha-power card from a Level-1 card, matching the
    saturation current at [vgs = vds = 1 V] overdrive. *)

val overdrive_power : t -> vgs:float -> vsb:float -> float
(** [(vgs - threshold t ~vsb) ** alpha], or 0 at or below threshold:
    the size-independent factor of {!sat_current}, shared by every
    device on one rail at one gate voltage. *)

val sat_current : t -> wl:float -> vgs:float -> vsb:float -> float
(** Saturation current of a device of size [wl] whose source sits [vsb]
    above the body terminal, with gate at [vgs] above the source:
    [0.5 *. beta *. wl *. overdrive_power t ~vgs ~vsb]. *)
