module C = Netlist.Circuit

type path = {
  endpoint : C.net;
  arrival : float;
  through : C.gate_id list;
}

type gating = {
  vt_high : bool array;
  block_of_gate : int array;
  sleep_wl : float array;
}

type t = {
  circuit : C.t;
  delays : float array;        (* per gate *)
  arrivals : float array;      (* per net *)
}

let high_vt_view (tech : Device.Tech.t) =
  { tech with
    Device.Tech.nmos = tech.Device.Tech.sleep_nmos;
    pmos = tech.Device.Tech.sleep_pmos }

let validate_gating circuit g =
  let n = C.num_gates circuit in
  if Array.length g.vt_high <> n || Array.length g.block_of_gate <> n then
    invalid_arg "Sta.analyze: gating arrays must cover every gate";
  Array.iter
    (fun b ->
      if b <> -1 && (b < 0 || b >= Array.length g.sleep_wl) then
        invalid_arg "Sta.analyze: gating block out of range")
    g.block_of_gate

(* the conventional timer's view: every cell low-Vt, in no cluster *)
let ungated circuit =
  let n = C.num_gates circuit in
  { vt_high = Array.make n false;
    block_of_gate = Array.make n (-1);
    sleep_wl = [||] }

let on_gated_rail gating gid =
  let b = gating.block_of_gate.(gid) in
  b >= 0 && (not gating.vt_high.(gid)) && gating.sleep_wl.(b) > 0.0

(* Co-discharge sets for the gated timer: a discharge wave sweeps the
   DAG level by level, so the low-Vt gates that pull current through one
   cluster device simultaneously are the same-cluster gates at the same
   topological depth (the pipeline-wave mutual exclusion Hierarchy
   documents).  Each (cluster, depth) group shares one virtual-ground
   equilibrium — the Fig. 8 N-inverter model, solved once per group.
   Gates at the same depth behind different devices do NOT load each
   other's rail: splitting a wide level across clusters is exactly how
   the optimizer buys isolation. *)
let codischarge_groups circuit gating ~group_of =
  let groups = Hashtbl.create 64 in
  Array.iter
    (fun (g : C.gate_inst) ->
      if on_gated_rail gating g.C.id then begin
        let d =
          Netlist.Gate.drive (C.tech circuit) ~strength:g.C.strength
            g.C.kind
        in
        let key = group_of g.C.id in
        let prev = Option.value ~default:[] (Hashtbl.find_opt groups key) in
        (* gates arrive in topological order; keep the list deterministic *)
        Hashtbl.replace groups key
          ({ Vground.beta_wl = d.Netlist.Gate.wl_pull_down;
             vin = (C.tech circuit).Device.Tech.vdd }
          :: prev)
      end)
    (C.gates circuit);
  groups

(* One per-gate rule for every cell: Eq. 3 against the cell's Vt card,
   the falling edge seeing its (cluster, depth) group's virtual-ground
   equilibrium.  Resistances and equilibria are solved once per call. *)
let gate_delays ?body_effect ?gating circuit =
  let tech = C.tech circuit in
  let low = Delay_model.of_tech ?body_effect tech in
  (* without gating no cell is high-Vt or on a gated rail, so the high
     card and the depths are never read *)
  let gating, high, depths =
    match gating with
    | None -> (ungated circuit, low, [||])
    | Some g ->
      validate_gating circuit g;
      ( g,
        Delay_model.of_tech ?body_effect (high_vt_view tech),
        C.gate_depths circuit )
  in
  let group_of gid = (gating.block_of_gate.(gid), depths.(gid)) in
  let groups = codischarge_groups circuit gating ~group_of in
  let resistance =
    Array.map
      (fun wl ->
        if wl > 0.0 then
          Device.Sleep.effective_resistance
            (Device.Sleep.nmos_footer tech ~wl)
        else 0.0)
      gating.sleep_wl
  in
  let solved = Hashtbl.create 64 in
  let vx_of gid =
    let ((b, _) as key) = group_of gid in
    match Hashtbl.find_opt solved key with
    | Some vx -> vx
    | None ->
      let drives = List.rev (Hashtbl.find groups key) in
      let vx =
        Vground.solve_resistor low.Delay_model.vg ~r:resistance.(b) drives
      in
      Hashtbl.add solved key vx;
      vx
  in
  Array.map
    (fun (g : C.gate_inst) ->
      let d = Netlist.Gate.drive tech ~strength:g.C.strength g.C.kind in
      let cl = C.load_capacitance circuit g.C.output in
      (* a high-Vt cell sits on the real ground: no bounce, just the
         weaker drive of the sleep-card devices *)
      let model = if gating.vt_high.(g.C.id) then high else low in
      let vx = if on_gated_rail gating g.C.id then vx_of g.C.id else 0.0 in
      Float.max
        (Delay_model.fall_delay model ~vx ~beta_wl:d.Netlist.Gate.wl_pull_down
           ~cl)
        (Delay_model.rise_delay model ~wl_pull_up:d.Netlist.Gate.wl_pull_up
           ~cl))
    (C.gates circuit)

let propagate circuit ~delay =
  let arrivals = Array.make (C.num_nets circuit) 0.0 in
  Array.iter
    (fun (g : C.gate_inst) ->
      let worst_in =
        Array.fold_left
          (fun acc n -> Float.max acc arrivals.(n))
          0.0 g.C.inputs
      in
      arrivals.(g.C.output) <- worst_in +. delay g)
    (C.gates circuit);
  arrivals

let worst_output circuit arrivals =
  let outs = C.outputs circuit in
  if Array.length outs = 0 then
    invalid_arg "Sta.worst_output: circuit has no outputs";
  let best = ref outs.(0) in
  Array.iter (fun n -> if arrivals.(n) > arrivals.(!best) then best := n) outs;
  (!best, arrivals.(!best))

let analyze ?body_effect ?gating circuit =
  let delays = gate_delays ?body_effect ?gating circuit in
  { circuit;
    delays;
    arrivals = propagate circuit ~delay:(fun g -> delays.(g.C.id)) }

let gate_delay t gid = t.delays.(gid)
let arrival t net = t.arrivals.(net)

let path_to t endpoint =
  let rec walk net acc =
    match C.gate_of_output t.circuit net with
    | None -> acc
    | Some g ->
      (* the input whose arrival dominates *)
      let worst =
        Array.fold_left
          (fun best n ->
            match best with
            | None -> Some n
            | Some b -> if t.arrivals.(n) > t.arrivals.(b) then Some n
              else best)
          None g.C.inputs
      in
      (match worst with
       | Some n when t.arrivals.(n) > 0.0 -> walk n (g.C.id :: acc)
       | Some _ | None -> g.C.id :: acc)
  in
  { endpoint; arrival = t.arrivals.(endpoint); through = walk endpoint [] }

let critical_path t = path_to t (fst (worst_output t.circuit t.arrivals))
let critical_arrival t = snd (worst_output t.circuit t.arrivals)

let slack t net = critical_arrival t -. t.arrivals.(net)

let mtcmos_underestimate t circuit ~sleep ~vectors =
  let sta_delay = critical_arrival t in
  let simulated, _ =
    Sizing.worst_delay_bp
      ~config:{ Breakpoint_sim.default_config with Breakpoint_sim.sleep }
      circuit vectors
  in
  (simulated -. sta_delay) /. sta_delay
