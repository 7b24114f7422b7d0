type t = {
  name : string;
  vdd : float;
  lmin : float;
  nmos : Mosfet.params;
  pmos : Mosfet.params;
  sleep_nmos : Mosfet.params;
  sleep_pmos : Mosfet.params;
  alpha : float;
  cg_per_wl : float;
  cj_per_wl : float;
  cwire : float;
  wl_n_unit : float;
  wl_p_unit : float;
}

let nmos_card ~vt0 ~kp ~gamma ~phi ~lambda =
  { Mosfet.polarity = Mosfet.Nmos; vt0; kp; gamma; phi; lambda;
    n_sub = 1.5; i0 = 1e-7 }

let pmos_card ~vt0 ~kp ~gamma ~phi ~lambda =
  { Mosfet.polarity = Mosfet.Pmos; vt0; kp; gamma; phi; lambda;
    n_sub = 1.5; i0 = 5e-8 }

(* 0.7 um node: tox ~ 14 nm -> Cox ~ 2.4 mF/m^2; kn' ~ 110 uA/V^2,
   kp' ~ 40 uA/V^2.  Thresholds from the paper (Fig. 4). *)
let mtcmos_07um =
  let cox = 2.4e-3 in
  let l = 0.7e-6 in
  { name = "mtcmos-0.7um";
    vdd = 1.2;
    lmin = l;
    nmos = nmos_card ~vt0:0.35 ~kp:110e-6 ~gamma:0.45 ~phi:0.7 ~lambda:0.04;
    pmos = pmos_card ~vt0:0.35 ~kp:40e-6 ~gamma:0.40 ~phi:0.7 ~lambda:0.05;
    sleep_nmos =
      nmos_card ~vt0:0.75 ~kp:110e-6 ~gamma:0.45 ~phi:0.7 ~lambda:0.04;
    sleep_pmos =
      pmos_card ~vt0:0.75 ~kp:40e-6 ~gamma:0.40 ~phi:0.7 ~lambda:0.05;
    alpha = 1.8;
    cg_per_wl = cox *. l *. l;
    cj_per_wl = 0.6 *. cox *. l *. l;
    cwire = 1.5e-15;
    wl_n_unit = 1.5;
    wl_p_unit = 3.0 }

(* 0.3 um node: tox ~ 7 nm -> Cox ~ 4.9 mF/m^2; kn' ~ 190 uA/V^2,
   kp' ~ 65 uA/V^2.  Thresholds from the paper (Fig. 6). *)
let mtcmos_03um =
  let cox = 4.9e-3 in
  let l = 0.3e-6 in
  { name = "mtcmos-0.3um";
    vdd = 1.0;
    lmin = l;
    nmos = nmos_card ~vt0:0.20 ~kp:190e-6 ~gamma:0.40 ~phi:0.7 ~lambda:0.06;
    pmos = pmos_card ~vt0:0.20 ~kp:65e-6 ~gamma:0.35 ~phi:0.7 ~lambda:0.08;
    sleep_nmos =
      nmos_card ~vt0:0.70 ~kp:190e-6 ~gamma:0.40 ~phi:0.7 ~lambda:0.06;
    sleep_pmos =
      pmos_card ~vt0:0.70 ~kp:65e-6 ~gamma:0.35 ~phi:0.7 ~lambda:0.08;
    alpha = 1.4;
    cg_per_wl = cox *. l *. l;
    cj_per_wl = 0.6 *. cox *. l *. l;
    cwire = 0.8e-15;
    wl_n_unit = 2.0;
    wl_p_unit = 4.0 }

(* 0.18 um node, beyond the paper's span: tox ~ 4 nm -> Cox ~ 8.6 mF/m^2;
   kn' ~ 280 uA/V^2, kp' ~ 95 uA/V^2.  Thresholds follow the paper's
   trajectory of scaling the low Vt with Vdd while holding the sleep
   device's Vt high. *)
let mtcmos_018um =
  let cox = 8.6e-3 in
  let l = 0.18e-6 in
  { name = "mtcmos-0.18um";
    vdd = 0.9;
    lmin = l;
    nmos = nmos_card ~vt0:0.18 ~kp:280e-6 ~gamma:0.35 ~phi:0.7 ~lambda:0.08;
    pmos = pmos_card ~vt0:0.18 ~kp:95e-6 ~gamma:0.30 ~phi:0.7 ~lambda:0.1;
    sleep_nmos =
      nmos_card ~vt0:0.62 ~kp:280e-6 ~gamma:0.35 ~phi:0.7 ~lambda:0.08;
    sleep_pmos =
      pmos_card ~vt0:0.62 ~kp:95e-6 ~gamma:0.30 ~phi:0.7 ~lambda:0.1;
    alpha = 1.3;
    cg_per_wl = cox *. l *. l;
    cj_per_wl = 0.6 *. cox *. l *. l;
    cwire = 0.5e-15;
    wl_n_unit = 2.5;
    wl_p_unit = 5.0 }

let with_vdd t vdd =
  if vdd <= 0.0 then invalid_arg "Tech.with_vdd";
  { t with vdd; name = Printf.sprintf "%s@%.2gV" t.name vdd }

let shift_vt (p : Mosfet.params) dv = { p with Mosfet.vt0 = p.Mosfet.vt0 +. dv }

let with_vt_shift t dv =
  { t with
    nmos = shift_vt t.nmos dv;
    pmos = shift_vt t.pmos dv;
    name = Printf.sprintf "%s+vt%.2g" t.name dv }

let with_alpha t alpha =
  if alpha <= 1.0 || alpha > 2.0 then invalid_arg "Tech.with_alpha";
  { t with alpha }

let nmos_alpha t = Alpha_power.of_level1 t.nmos ~alpha:t.alpha
let pmos_alpha t = Alpha_power.of_level1 t.pmos ~alpha:t.alpha
