module C = Netlist.Circuit
module S = Netlist.Signal

type config = {
  sleep : Breakpoint_sim.sleep_model;
  cx_extra : float;
  pmos_header : bool;
  t_start : float;
  t_stop : float;
  dt : float option;
  newton_budget : int option;
  fast : Spice.Engine.Opts.fast;
}

let default_config =
  { sleep = Breakpoint_sim.Cmos;
    cx_extra = 0.0;
    pmos_header = false;
    t_start = 100e-12;
    t_stop = 6e-9;
    dt = None;
    newton_budget = None;
    fast = `Off }

let input_ramp = 50e-12

type run = {
  circuit : C.t;
  cfg : config;
  instance : Netlist.Expand.instance;
  result : Spice.Engine.result;
  vdd : float;
}

let expand_config (cfg : config) =
  match cfg.sleep with
  | Breakpoint_sim.Cmos ->
    { Netlist.Expand.default with Netlist.Expand.cx_extra = cfg.cx_extra }
  | Breakpoint_sim.Resistor r ->
    { Netlist.Expand.default with
      Netlist.Expand.resistor_model = Some r;
      cx_extra = cfg.cx_extra;
      pmos_header = cfg.pmos_header }
  | Breakpoint_sim.Sleep_fet s ->
    { Netlist.Expand.default with
      Netlist.Expand.sleep_wl = Some s.Device.Sleep.wl;
      cx_extra = cfg.cx_extra;
      pmos_header = cfg.pmos_header }

let stimulus cfg ~vdd before after =
  let v_of = function S.L1 -> vdd | S.L0 -> 0.0 | S.X -> 0.0 in
  let v0 = v_of before and v1 = v_of after in
  if before = after then Phys.Pwl.constant v0
  else
    Phys.Pwl.create
      [ (0.0, v0); (cfg.t_start, v0); (cfg.t_start +. input_ramp, v1) ]

(* a transient that fails even after the engine's recovery ladder
   returns its diagnosis instead of raising *)
let run_r ?(config = default_config) ?obs circuit ~before ~after =
  let primary = C.inputs circuit in
  if Array.length before <> Array.length primary
     || Array.length after <> Array.length primary then
    invalid_arg "Spice_ref.run: input length mismatch";
  Array.iter
    (fun l ->
      match l with
      | S.X -> invalid_arg "Spice_ref.run: X input"
      | S.L0 | S.L1 -> ())
    (Array.append before after);
  let tech = C.tech circuit in
  let vdd = tech.Device.Tech.vdd in
  let stimuli =
    Array.to_list
      (Array.mapi
         (fun i n -> (n, stimulus config ~vdd before.(i) after.(i)))
         primary)
  in
  let instance =
    Netlist.Expand.expand ~config:(expand_config config) circuit ~stimuli
  in
  let record =
    let nodes nets =
      Array.to_list
        (Array.map (fun n -> instance.Netlist.Expand.node_of_net.(n)) nets)
    in
    let vg = Option.to_list instance.Netlist.Expand.vground in
    Spice.Engine.Nodes (nodes (C.outputs circuit) @ nodes primary @ vg)
  in
  let dt =
    match config.dt with Some d -> d | None -> config.t_stop /. 3000.0
  in
  (* small blocks get a true DC solve; large ones start from the
     logic-derived state and settle during the pre-[t_start] window *)
  let uic = C.num_gates circuit > 60 in
  let opts =
    Spice.Engine.Opts.(
      default
      |> with_fast config.fast
      |> with_dt dt
      |> with_record record
      |> with_uic uic
      |> with_newton_budget config.newton_budget)
  in
  let engine =
    Spice.Engine.prepare ~opts instance.Netlist.Expand.netlist
  in
  (* seed the DC operating point from the logic-simulator steady state:
     big combinational blocks will not converge from all-zeros *)
  let pre = Netlist.Logic_sim.eval circuit before in
  let rail_hint =
    match instance.Netlist.Expand.vground with
    | Some n when config.pmos_header -> [ (n, vdd) ]
    | Some _ | None -> []
  in
  let hints =
    (instance.Netlist.Expand.vdd_node, vdd)
    :: rail_hint
    @ List.filter_map
         (fun net ->
           match pre.(net) with
           | S.L1 -> Some (instance.Netlist.Expand.node_of_net.(net), vdd)
           | S.L0 | S.X -> None)
         (List.init (C.num_nets circuit) (fun n -> n))
  in
  let x0 = Spice.Engine.initial_guess engine hints in
  match Spice.Engine.transient_r engine ~t_stop:config.t_stop ~x0 ?obs with
  | Ok result -> Ok { circuit; cfg = config; instance; result; vdd }
  | Error f -> Error f

let run ?config circuit ~before ~after =
  match run_r ?config circuit ~before ~after with
  | Ok r -> r
  | Error f ->
    raise (Spice.Engine.No_convergence (Spice.Diag.failure_to_string f))

let pack = Netlist.Circuit.pack_ints

let run_ints_r ?config ?obs circuit ~before ~after =
  run_r ?config ?obs circuit ~before:(pack circuit before)
    ~after:(pack circuit after)

let run_ints ?config circuit ~before ~after =
  run ?config circuit ~before:(pack circuit before) ~after:(pack circuit after)

let net_waveform r net =
  Spice.Engine.waveform r.result r.instance.Netlist.Expand.node_of_net.(net)

let vground_waveform r =
  match r.instance.Netlist.Expand.vground with
  | None -> None
  | Some n -> Some (Spice.Engine.waveform r.result n)

let vx_peak r =
  match vground_waveform r with
  | None -> 0.0
  | Some w ->
    if r.cfg.pmos_header then
      (* the virtual Vdd droops downward: report the droop magnitude *)
      r.vdd -. fst (Phys.Pwl.extrema w)
    else snd (Phys.Pwl.extrema w)

(* current through the sleep element: the measured rail voltage mapped
   through the device's I-V curve (Ohm's law for the resistor model);
   [None] for conventional CMOS *)
let sleep_current_waveform r =
  match vground_waveform r with
  | None -> None
  | Some w ->
    let drop v = if r.cfg.pmos_header then r.vdd -. v else v in
    (match r.cfg.sleep with
     | Breakpoint_sim.Cmos -> None
     | Breakpoint_sim.Resistor res ->
       Some (Phys.Pwl.map (fun v -> drop v /. res) w)
     | Breakpoint_sim.Sleep_fet s ->
       Some (Phys.Pwl.map (fun v -> Device.Sleep.current_at_vds s (drop v)) w))

let peak_sleep_current r =
  match sleep_current_waveform r with
  | None -> 0.0
  | Some w -> snd (Phys.Pwl.extrema w)

let net_delay r net =
  Spice.Measure.net_delay (net_waveform r net) ~vdd:r.vdd
    ~t_start:r.cfg.t_start

let critical_delay r =
  Spice.Measure.critical_delay (C.outputs r.circuit) (net_delay r)

let newton_iterations r = Spice.Engine.newton_iterations r.result
let telemetry r = Spice.Engine.telemetry r.result
