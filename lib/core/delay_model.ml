type t = {
  vg : Vground.config;
  pmos : Device.Alpha_power.t;
  vdd : float;
}

let of_tech ?body_effect tech =
  { vg = Vground.config ?body_effect tech;
    pmos = Device.Tech.pmos_alpha tech;
    vdd = tech.Device.Tech.vdd }

(* the pull-down sees the virtual ground; the pull-up never does *)
let pull_down t ~vx ~beta_wl ~vin =
  Vground.gate_current t.vg ~vx { Vground.beta_wl; vin }

let pull_up t ~wl_pull_up =
  Device.Alpha_power.sat_current t.pmos ~wl:wl_pull_up ~vgs:t.vdd ~vsb:0.0

let discharge_slope t ~vx ~beta_wl ~vin ~cl =
  -.pull_down t ~vx ~beta_wl ~vin /. cl

let charge_slope t ~wl_pull_up ~cl = pull_up t ~wl_pull_up /. cl

(* Eq. 3: a constant current [i] swings [cl] through half the rail *)
let delay_of_current t ~cl i =
  if i <= 0.0 then infinity else cl *. t.vdd /. (2.0 *. i)

let fall_delay t ~vx ~beta_wl ~cl =
  delay_of_current t ~cl (pull_down t ~vx ~beta_wl ~vin:t.vdd)

let rise_delay t ~wl_pull_up ~cl = delay_of_current t ~cl (pull_up t ~wl_pull_up)

let cmos_gate_delay t ~beta_wl ~cl = fall_delay t ~vx:0.0 ~beta_wl ~cl

let mtcmos_gate_delay t ~r ~others_beta_wl ~beta_wl ~cl =
  let vx =
    Vground.solve_resistor t.vg ~r
      (List.map
         (fun wl -> { Vground.beta_wl = wl; vin = t.vdd })
         (beta_wl :: others_beta_wl))
  in
  fall_delay t ~vx ~beta_wl ~cl
