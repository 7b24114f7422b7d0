type t = {
  params : Mosfet.params;
  wl : float;
  vdd : float;
}

let make params ~wl ~vdd =
  if wl <= 0.0 then invalid_arg "Sleep.make: wl <= 0";
  if vdd <= params.Mosfet.vt0 then
    invalid_arg "Sleep.make: sleep device cannot turn on at this vdd";
  { params; wl; vdd }

let nmos_footer (tech : Tech.t) ~wl =
  make tech.Tech.sleep_nmos ~wl ~vdd:tech.Tech.vdd

let of_pmos (params : Mosfet.params) ~wl ~vdd =
  (match params.Mosfet.polarity with
   | Mosfet.Pmos -> ()
   | Mosfet.Nmos -> invalid_arg "Sleep.of_pmos: card is not PMOS");
  (* fold the header into the NMOS convention: same magnitudes of
     threshold, gain and body effect, evaluated source-referenced *)
  make { params with Mosfet.polarity = Mosfet.Nmos } ~wl ~vdd

let effective_resistance s =
  Mosfet.linear_resistance s.params ~wl:s.wl ~vgs:s.vdd

let current_at_vds s vds =
  Mosfet.ids s.params ~wl:s.wl { Mosfet.vgs = s.vdd; vds; vbs = 0.0 }

let vds_at_current s i =
  if i <= 0.0 then 0.0
  else
    let i_sat =
      Mosfet.saturation_current s.params ~wl:s.wl ~vgs:s.vdd ~vbs:0.0
    in
    if i >= i_sat then s.vdd
    else
      Phys.Rootfind.brent (fun v -> current_at_vds s v -. i) ~lo:0.0
        ~hi:s.vdd

let wl_for_resistance (p : Mosfet.params) ~vdd ~r =
  if r <= 0.0 then invalid_arg "Sleep.wl_for_resistance: r <= 0";
  let vov = vdd -. p.vt0 in
  if vov <= 0.0 then
    invalid_arg "Sleep.wl_for_resistance: device cannot turn on";
  1.0 /. (p.kp *. r *. vov)

let area_cost s ~lmin = s.wl *. lmin *. lmin

let switching_energy s ~cg_per_wl =
  0.5 *. cg_per_wl *. s.wl *. s.vdd *. s.vdd
