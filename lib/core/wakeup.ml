module C = Netlist.Circuit
module T = Netlist.Transistor

type estimate = {
  rail_capacitance : float;
  v_float : float;
  analytic : float;
}

let rail_capacitance circuit ~wl =
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

(* during sleep the rail floats until the block leakage through the
   low-Vt devices balances the high-Vt sleep leakage *)
let float_voltage circuit ~wl =
  let tech = C.tech circuit in
  let vdd = tech.Device.Tech.vdd in
  let mismatch vx =
    let i_block =
      Device.Leakage.subthreshold_current tech.Device.Tech.nmos
        ~wl:(C.total_pulldown_wl circuit) ~vgs:(-.vx) ~vds:(vdd -. vx)
    in
    let i_sleep =
      Device.Leakage.subthreshold_current tech.Device.Tech.sleep_nmos
        ~wl ~vgs:0.0 ~vds:vx
    in
    i_block -. i_sleep
  in
  try Phys.Rootfind.bisect mismatch ~lo:0.0 ~hi:vdd
  with Phys.Rootfind.No_bracket -> 0.0

let estimate circuit ~wl =
  let tech = C.tech circuit in
  let vdd = tech.Device.Tech.vdd in
  let c = rail_capacitance circuit ~wl in
  let v_float = float_voltage circuit ~wl in
  let i_sat =
    Device.Mosfet.saturation_current tech.Device.Tech.sleep_nmos ~wl
      ~vgs:vdd ~vbs:0.0
  in
  { rail_capacitance = c;
    v_float;
    analytic = (if i_sat <= 0.0 then infinity else c *. v_float /. i_sat) }

let simulate circuit ~wl =
  let tech = C.tech circuit in
  let vdd = tech.Device.Tech.vdd in
  let v_threshold = 0.1 *. vdd and t_stop = 20e-9 in
  let t_edge = 1e-9 in
  (* build the MTCMOS netlist by hand so the sleep gate can ramp *)
  let stimuli =
    Array.to_list
      (Array.map (fun n -> (n, Phys.Pwl.constant 0.0)) (C.inputs circuit))
  in
  let config = Netlist.Expand.mtcmos ~wl in
  let inst = Netlist.Expand.expand ~config circuit ~stimuli in
  (* replace the constant sleep-gate source: rebuild with a ramping one *)
  let b = T.builder () in
  let remap = Hashtbl.create 64 in
  let map n =
    if n = T.ground then T.ground
    else
      match Hashtbl.find_opt remap n with
      | Some m -> m
      | None ->
        let m = T.node b in
        Hashtbl.replace remap n m;
        m
  in
  let sleep_gate_old =
    T.find_node inst.Netlist.Expand.netlist "sleep_en"
  in
  Array.iter
    (fun e ->
      match e with
      | T.Vsrc { pos; neg; _ } when pos = sleep_gate_old ->
        T.add b
          (T.Vsrc
             { pos = map pos; neg = map neg;
               wave =
                 Phys.Pwl.create
                   [ (0.0, 0.0); (t_edge, 0.0);
                     (t_edge +. 100e-12, vdd) ] })
      | T.Vsrc { pos; neg; wave } ->
        T.add b (T.Vsrc { pos = map pos; neg = map neg; wave })
      | T.Mos { params; wl; drain; gate; source; body } ->
        T.add b
          (T.Mos
             { params; wl; drain = map drain; gate = map gate;
               source = map source; body = map body })
      | T.Cap { pos; neg; c } ->
        T.add b (T.Cap { pos = map pos; neg = map neg; c })
      | T.Res { pos; neg; r } ->
        T.add b (T.Res { pos = map pos; neg = map neg; r }))
    (T.elements inst.Netlist.Expand.netlist);
  let netlist = T.freeze b in
  let vg_node =
    match inst.Netlist.Expand.vground with
    | Some n -> map n
    | None -> invalid_arg "Wakeup.simulate: no virtual ground"
  in
  let eng =
    Spice.Engine.prepare
      ~opts:
        Spice.Engine.Opts.(
          default
          |> with_dt (t_stop /. 4000.0)
          |> with_record (Spice.Engine.Nodes [ vg_node ])
          |> with_uic true)
      netlist
  in
  (* initial condition: asleep, rail floated *)
  let v_float = float_voltage circuit ~wl in
  let zeros =
    Array.map (fun _ -> Netlist.Signal.L0) (C.inputs circuit)
  in
  let logic_state = Netlist.Logic_sim.eval circuit zeros in
  let hints =
    (map inst.Netlist.Expand.vdd_node, vdd)
    :: (vg_node, v_float)
    :: List.filter_map
         (fun net ->
           match logic_state.(net) with
           | Netlist.Signal.L1 ->
             Some (map inst.Netlist.Expand.node_of_net.(net), vdd)
           | Netlist.Signal.L0 ->
             (* lows ride at the floated rail while asleep *)
             Some (map inst.Netlist.Expand.node_of_net.(net), v_float)
           | Netlist.Signal.X -> None)
         (List.init (C.num_nets circuit) (fun n -> n))
  in
  let x0 = Spice.Engine.initial_guess eng hints in
  let res =
    match Spice.Engine.transient_r eng ~t_stop ~x0 with
    | Ok res -> res
    | Error f ->
      raise (Spice.Engine.No_convergence (Spice.Diag.failure_to_string f))
  in
  let w = Spice.Engine.waveform res vg_node in
  match
    Phys.Pwl.first_crossing ~after:t_edge w ~level:v_threshold
      ~rising:false
  with
  | Some t -> t -. t_edge
  | None -> raise Not_found
