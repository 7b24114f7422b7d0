type assessment = {
  v_low : float;
  nm_low_remaining : float;
  precharge_speedup : float;
  logic_failure : bool;
}

let assess (tech : Device.Tech.t) ~vx =
  let vdd = tech.Device.Tech.vdd in
  let vt = tech.Device.Tech.nmos.Device.Mosfet.vt0 in
  { v_low = vx;
    nm_low_remaining = vt -. vx;
    precharge_speedup = vx /. vdd;
    logic_failure = vx >= vdd /. 2.0 }
