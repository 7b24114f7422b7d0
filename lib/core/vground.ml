type gate_drive = {
  beta_wl : float;
  vin : float;
}

type config = {
  model : Device.Alpha_power.t;
  vdd : float;
  body_effect : bool;
}

let config ?(body_effect = true) (tech : Device.Tech.t) =
  let model = Device.Tech.nmos_alpha tech in
  let model =
    if body_effect then model
    else { model with Device.Alpha_power.gamma = 0.0 }
  in
  { model; vdd = tech.Device.Tech.vdd; body_effect }

(* The pulldown's source sits on the virtual ground, so its gate drive is
   [vin - vx] and, when the body effect is modelled, its threshold is
   raised at [vsb = vx].  The [body_effect] flag is authoritative even if
   the card carries a non-zero gamma. *)
let gate_current cfg ~vx g =
  let vsb = if cfg.body_effect then vx else 0.0 in
  Device.Alpha_power.sat_current cfg.model ~wl:g.beta_wl
    ~vgs:(g.vin -. vx) ~vsb

(* [gate_current] summed in list order, with the alpha-power factor
   evaluated once per run of equal [vin] rather than once per gate: the
   same float operations, so the same bits *)
let total_current cfg ~vx gates =
  let vsb = if cfg.body_effect then vx else 0.0 in
  let half_beta = 0.5 *. cfg.model.Device.Alpha_power.beta in
  let run = ref (Float.nan, 0.0) in
  List.fold_left
    (fun acc g ->
      let vin, p = !run in
      let p =
        if g.vin = vin then p
        else begin
          let p =
            Device.Alpha_power.overdrive_power cfg.model
              ~vgs:(g.vin -. vx) ~vsb
          in
          run := (g.vin, p);
          p
        end
      in
      acc +. (half_beta *. g.beta_wl *. p))
    0.0 gates

(* Both solvers exploit monotonicity: sleep-path current grows with vx
   while the gates' total current shrinks, so the mismatch
   [sleep vx - gates vx] is increasing and brackets a unique root in
   [0, vdd]. *)
let solve_mismatch cfg ~sleep_current gates =
  match gates with
  | [] -> 0.0
  | _ ->
    let mismatch vx = sleep_current vx -. total_current cfg ~vx gates in
    if mismatch 0.0 >= 0.0 then 0.0
    else if mismatch cfg.vdd <= 0.0 then cfg.vdd
    else Phys.Rootfind.brent ~tol:1e-12 mismatch ~lo:0.0 ~hi:cfg.vdd

let solve_resistor cfg ~r gates =
  if r < 0.0 then invalid_arg "Vground.solve_resistor: r < 0";
  if r = 0.0 then 0.0
  else solve_mismatch cfg ~sleep_current:(fun vx -> vx /. r) gates

let solve_device cfg ~sleep gates =
  solve_mismatch cfg
    ~sleep_current:(fun vx -> Device.Sleep.current_at_vds sleep vx)
    gates

let solve_quadratic cfg ~r gates =
  if cfg.model.Device.Alpha_power.alpha <> 2.0 then
    invalid_arg "Vground.solve_quadratic: alpha must be 2";
  if cfg.body_effect then
    invalid_arg "Vground.solve_quadratic: body effect must be off";
  match gates with
  | [] -> 0.0
  | _ ->
    (* vx / r = sum_j (beta_j / 2) (vin_j - vx - vt)^2.  With all gates at
       full drive this is a quadratic in vx; with mixed vin it still is,
       as long as every gate stays on (checked after solving). *)
    let vt = cfg.model.Device.Alpha_power.vt0 in
    let beta = cfg.model.Device.Alpha_power.beta in
    let a2 =
      List.fold_left (fun acc g -> acc +. (0.5 *. beta *. g.beta_wl)) 0.0
        gates
    in
    let a1 =
      List.fold_left
        (fun acc g -> acc -. (beta *. g.beta_wl *. (g.vin -. vt)))
        (-1.0 /. r) gates
    in
    let a0 =
      List.fold_left
        (fun acc g ->
          let ov = g.vin -. vt in
          acc +. (0.5 *. beta *. g.beta_wl *. ov *. ov))
        0.0 gates
    in
    let disc = (a1 *. a1) -. (4.0 *. a2 *. a0) in
    if disc < 0.0 then cfg.vdd
    else
      let vx = (-.a1 -. sqrt disc) /. (2.0 *. a2) in
      Phys.Float_utils.clamp ~lo:0.0 ~hi:cfg.vdd vx
