type t = {
  alpha : float;
  beta : float;
  vt0 : float;
  gamma : float;
  phi : float;
}

let of_level1 (p : Mosfet.params) ~alpha =
  if alpha <= 1.0 || alpha > 2.0 then
    invalid_arg "Alpha_power.of_level1: alpha must be in (1, 2]";
  (* match I_sat at 1 V of overdrive: (beta/2) * 1^alpha = (kp/2) * 1^2 *)
  { alpha; beta = p.kp; vt0 = p.vt0; gamma = p.gamma; phi = p.phi }

let threshold t ~vsb =
  if t.gamma = 0.0 then t.vt0
  else
    let arg = Float.max 1e-6 (t.phi +. vsb) in
    t.vt0 +. (t.gamma *. (sqrt arg -. sqrt t.phi))

let overdrive_power t ~vgs ~vsb =
  let vov = vgs -. threshold t ~vsb in
  if vov <= 0.0 then 0.0 else vov ** t.alpha

let sat_current t ~wl ~vgs ~vsb =
  0.5 *. t.beta *. wl *. overdrive_power t ~vgs ~vsb
