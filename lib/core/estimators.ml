let sum_of_widths c = Netlist.Circuit.total_pulldown_wl c

let peak_current_wl (tech : Device.Tech.t) ~i_peak ~v_budget =
  if i_peak <= 0.0 || v_budget <= 0.0 then
    invalid_arg "Estimators.peak_current_wl: non-positive argument";
  let r = v_budget /. i_peak in
  Device.Sleep.wl_for_resistance tech.Device.Tech.sleep_nmos
    ~vdd:tech.Device.Tech.vdd ~r

let peak_current_of_transition c ~before ~after =
  let config =
    { Breakpoint_sim.default_config with Breakpoint_sim.body_effect = true }
  in
  let r = Breakpoint_sim.simulate_ints ~config c ~before ~after in
  Breakpoint_sim.peak_discharge_current r

let v_budget_for_degradation (tech : Device.Tech.t) ~target =
  if target <= 0.0 then
    invalid_arg "Estimators.v_budget_for_degradation: target <= 0";
  let vdd = tech.Device.Tech.vdd in
  let vt = tech.Device.Tech.nmos.Device.Mosfet.vt0 in
  target *. (vdd -. vt) /. tech.Device.Tech.alpha
