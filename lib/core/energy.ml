module C = Netlist.Circuit

type budget = {
  switching_per_transition : float;
  sleep_toggle : float;
  rail_recharge : float;
  standby_power_saved : float;
  area : float;
}

let switching_energy_of_transition circuit ~before ~after =
  let vdd = (C.tech circuit).Device.Tech.vdd in
  let es = Netlist.Event_sim.of_circuit circuit in
  let m =
    Netlist.Event_sim.transition es
      ~before:(Netlist.Circuit.pack_ints circuit before)
      ~after:(Netlist.Circuit.pack_ints circuit after)
  in
  (* changed_nets comes back in ascending net order — the same order
     the old dense 0..nets-1 scan summed in, so the float total is
     bit-identical *)
  let e = ref 0.0 in
  List.iter
    (fun (n, v0, v1) ->
      match (v0, v1) with
      | Netlist.Signal.L0, Netlist.Signal.L1 ->
        e := !e +. (C.load_capacitance circuit n *. vdd *. vdd)
      | (Netlist.Signal.L0 | Netlist.Signal.L1 | Netlist.Signal.X), _ -> ())
    (Netlist.Event_sim.changed_nets es m);
  !e

let switching_energy_of_result circuit result =
  let vdd = (C.tech circuit).Device.Tech.vdd in
  let e = ref 0.0 in
  for n = 0 to C.num_nets circuit - 1 do
    let w = Breakpoint_sim.waveform result n in
    let rise = ref 0.0 in
    let rec walk = function
      | (_, v0) :: ((_, v1) :: _ as rest) ->
        if v1 > v0 then rise := !rise +. (v1 -. v0);
        walk rest
      | [ _ ] | [] -> ()
    in
    walk (Phys.Pwl.points w);
    e := !e +. (C.load_capacitance circuit n *. vdd *. !rise)
  done;
  !e

let virtual_rail_capacitance circuit ~wl =
  (* junction capacitance of the sleep device plus the source junctions
     of the pulldown networks returning to the rail: approximate the
     latter as half the gates' output junction contribution *)
  let tech = C.tech circuit in
  let sleep_j = wl *. tech.Device.Tech.cj_per_wl in
  let gate_j =
    Array.fold_left
      (fun acc (g : C.gate_inst) ->
        let d = Netlist.Gate.drive tech ~strength:g.C.strength g.C.kind in
        acc +. (0.5 *. d.Netlist.Gate.cout_j))
      0.0 (C.gates circuit)
  in
  sleep_j +. gate_j

let sleep_cycle_overhead circuit ~wl =
  let tech = C.tech circuit in
  let vdd = tech.Device.Tech.vdd in
  let sleep = Device.Sleep.nmos_footer tech ~wl in
  let toggle =
    Device.Sleep.switching_energy sleep
      ~cg_per_wl:tech.Device.Tech.cg_per_wl
  in
  (* entering + leaving sleep toggles the gate twice; the rail floats to
     ~vdd while asleep and must be discharged (energy already spent
     charging it through leakage, dissipated on wake) *)
  let rail = virtual_rail_capacitance circuit ~wl *. vdd *. vdd in
  (2.0 *. toggle) +. rail

let budget circuit ~wl =
  let tech = C.tech circuit in
  let vdd = tech.Device.Tech.vdd in
  let sleep = Device.Sleep.nmos_footer tech ~wl in
  let toggle =
    Device.Sleep.switching_energy sleep
      ~cg_per_wl:tech.Device.Tech.cg_per_wl
  in
  let rail = virtual_rail_capacitance circuit ~wl *. vdd *. vdd in
  let widths =
    List.map (fun _ -> 1) (Array.to_list (C.inputs circuit))
  in
  let all_low = List.map (fun w -> (w, 0)) widths in
  let all_high = List.map (fun w -> (w, 1)) widths in
  let switching =
    switching_energy_of_transition circuit ~before:all_low ~after:all_high
  in
  let conv, mt =
    Device.Leakage.standby_comparison ~low_vt:tech.Device.Tech.nmos
      ~high_vt:tech.Device.Tech.sleep_nmos
      ~total_width_wl:(C.total_pulldown_wl circuit)
      ~sleep_wl:wl ~vdd
  in
  { switching_per_transition = switching;
    sleep_toggle = toggle;
    rail_recharge = rail;
    standby_power_saved = (conv -. mt) *. vdd;
    area = Device.Sleep.area_cost sleep ~lmin:tech.Device.Tech.lmin }

let break_even_idle_time circuit ~wl =
  let b = budget circuit ~wl in
  if b.standby_power_saved <= 0.0 then infinity
  else sleep_cycle_overhead circuit ~wl /. b.standby_power_saved

let pp_budget fmt b =
  Format.fprintf fmt
    "switch/transition=%s sleep_toggle=%s rail=%s saved=%s area=%s"
    (Phys.Units.to_eng_string ~unit:"J" b.switching_per_transition)
    (Phys.Units.to_eng_string ~unit:"J" b.sleep_toggle)
    (Phys.Units.to_eng_string ~unit:"J" b.rail_recharge)
    (Phys.Units.to_eng_string ~unit:"W" b.standby_power_saved)
    (Printf.sprintf "%.3gum^2" (b.area *. 1e12))
