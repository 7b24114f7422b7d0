module C = Netlist.Circuit
module S = Netlist.Signal

type sleep_model =
  | Cmos
  | Resistor of float
  | Sleep_fet of Device.Sleep.t

type rail_side = Gnd_switch | Vdd_switch

type partition = {
  block_of_gate : int array;
  sleeps : sleep_model array;
}

type config = {
  sleep : sleep_model;
  body_effect : bool;
  reverse_conduction : bool;
  partition : partition option;
  cx : float;
  input_slope : bool;
  tech_override : Device.Tech.t option;
  rail : rail_side;
}

(* the primary inputs flip at t = 0; the event bound is the hang guard *)
let t_start = 0.0
let max_events = 1_000_000

let default_config =
  { sleep = Cmos;
    body_effect = true;
    reverse_conduction = false;
    partition = None;
    cx = 0.0;
    input_slope = false;
    tech_override = None;
    rail = Gnd_switch }

let mtcmos_config tech ~wl =
  { default_config with sleep = Sleep_fet (Device.Sleep.nmos_footer tech ~wl) }

let mtcmos_pmos_config (tech : Device.Tech.t) ~wl =
  let sleep =
    Device.Sleep.of_pmos tech.Device.Tech.sleep_pmos ~wl
      ~vdd:tech.Device.Tech.vdd
  in
  { default_config with sleep = Sleep_fet sleep; rail = Vdd_switch }

type phase = Idle | Rising | Falling

type result = {
  circuit : C.t;
  vdd : float;
  wave_points : (float * float) list array; (* per net, reversed *)
  mutable vx_points : (float * float) list; (* headline rail, reversed *)
  vxb_points : (float * float) list ref array; (* per sleep block *)
  mutable i_points : (float * float) list;  (* total discharge current *)
  mutable vx_max : float;
  mutable i_max : float;
  mutable n_events : int;
  mutable n_solves : int; (* rail equilibria solved, reuses excluded *)
  mutable t_last : float;
}

exception Starved of float

let validate_inputs c levels name =
  if Array.length levels <> Array.length (C.inputs c) then
    invalid_arg (Printf.sprintf "Breakpoint_sim: %s length mismatch" name);
  Array.iter
    (fun l ->
      match l with
      | S.X -> invalid_arg (Printf.sprintf "Breakpoint_sim: X in %s" name)
      | S.L0 | S.L1 -> ())
    levels

let simulate_core ?(config = default_config) c ~before ~after =
  validate_inputs c before "before";
  validate_inputs c after "after";
  let tech =
    match config.tech_override with
    | Some t -> t
    | None -> C.tech c
  in
  let vdd = tech.Device.Tech.vdd in
  let half = vdd /. 2.0 in
  (* sleep-device partition: one shared rail by default *)
  let sleeps =
    match config.partition with
    | None -> [| config.sleep |]
    | Some p ->
      if Array.length p.sleeps = 0 then
        invalid_arg "Breakpoint_sim: empty partition";
      p.sleeps
  in
  let n_blocks = Array.length sleeps in
  let model = Delay_model.of_tech ~body_effect:config.body_effect tech in
  let gated_rising = config.rail = Vdd_switch in
  (* with a PMOS header, the shared rail is a virtual Vdd and the gated
     devices are the pull-ups: the same equilibrium solved against the
     PMOS alpha-power card (magnitudes) *)
  let vg_cfg =
    if gated_rising then
      { model.Delay_model.vg with
        Vground.model = Device.Tech.pmos_alpha tech }
    else model.Delay_model.vg
  in
  (* the event-driven core shares one flattened netlist per circuit
     across every simulate call (and every Par.Pool domain); the dense
     second eval that used to compute-and-discard the post state is
     gone — retargeting discovers the post state incrementally *)
  let es = Netlist.Event_sim.of_circuit c in
  let pre = Netlist.Event_sim.levels es (Netlist.Event_sim.init es before) in
  (* check the initial state is fully determined *)
  Array.iter
    (fun (g : C.gate_inst) ->
      match pre.(g.C.output) with
      | S.X ->
        invalid_arg "Breakpoint_sim: initial state not fully determined"
      | S.L0 | S.L1 -> ())
    (C.gates c);
  let n_nets = C.num_nets c in
  let volt_of_level = function S.L1 -> vdd | S.L0 | S.X -> 0.0 in
  let v_net = Array.make n_nets 0.0 in
  let level = Array.make n_nets false in
  for n = 0 to n_nets - 1 do
    v_net.(n) <- volt_of_level pre.(n);
    level.(n) <- pre.(n) = S.L1
  done;
  (* --- flat per-gate state, indexed by gate id ---------------------------- *)
  let gates = C.gates c in
  let n_gates = Array.length gates in
  let out = Array.map (fun (g : C.gate_inst) -> g.C.output) gates in
  (* every gate's block, checked whether or not it ever switches *)
  let block =
    match config.partition with
    | None -> Array.make n_gates 0
    | Some p ->
      if Array.length p.block_of_gate <> n_gates then
        invalid_arg "Breakpoint_sim: partition length mismatch";
      Array.iter
        (fun b ->
          if b < 0 || b >= n_blocks then
            invalid_arg "Breakpoint_sim: block index out of range")
        p.block_of_gate;
      p.block_of_gate
  in
  let cl = Array.map (C.load_capacitance c) out in
  let drives =
    Array.map
      (fun (g : C.gate_inst) ->
        Netlist.Gate.drive tech ~strength:g.C.strength g.C.kind)
      gates
  in
  let beta_wl = Array.map (fun d -> d.Netlist.Gate.wl_pull_down) drives in
  let wl_up = Array.map (fun d -> d.Netlist.Gate.wl_pull_up) drives in
  (* the ungated edge's slope is a constant of the gate; the gated edge's
     is [gated_k * (its rail's alpha-power factor) / cl], the operations
     of [Vground.gate_current] in the same order *)
  let ungated_slope =
    Array.init n_gates (fun i ->
        if gated_rising then
          Delay_model.discharge_slope model ~vx:0.0 ~beta_wl:beta_wl.(i)
            ~vin:vdd ~cl:cl.(i)
        else Delay_model.charge_slope model ~wl_pull_up:wl_up.(i) ~cl:cl.(i))
  in
  let gated_k =
    let half_beta = 0.5 *. vg_cfg.Vground.model.Device.Alpha_power.beta in
    Array.init n_gates (fun i ->
        half_beta *. (if gated_rising then wl_up.(i) else beta_wl.(i)))
  in
  let v = Array.map (fun n -> v_net.(n)) out in
  let phase = Array.make n_gates Idle in
  let slope = Array.make n_gates 0.0 in
  (* input-slope extension: transition committed but not moving yet *)
  let hold_until = Array.make n_gates neg_infinity in
  let res =
    { circuit = c;
      vdd;
      wave_points = Array.make n_nets [];
      vx_points = [];
      vxb_points = Array.init n_blocks (fun _ -> ref []);
      i_points = [];
      vx_max = 0.0;
      i_max = 0.0;
      n_events = 0;
      n_solves = 0;
      t_last = t_start }
  in
  let record_net t n v = res.wave_points.(n) <- (t, v) :: res.wave_points.(n) in
  for n = 0 to n_nets - 1 do
    record_net 0.0 n v_net.(n)
  done;
  (* --- logic retargeting ------------------------------------------------ *)
  let eval_target i =
    let g = gates.(i) in
    let pins = Array.map (fun n -> S.of_bool level.(n)) g.C.inputs in
    match Netlist.Gate.logic g.C.kind pins with
    | S.L1 -> true
    | S.L0 -> false
    | S.X -> assert false
  in
  (* Sakurai-Newton slow-input correction: a gate driven by a ramp of
     transition time t_tr starts [coeff * t_tr] after the vdd/2 crossing *)
  let slope_coeff =
    let vt = tech.Device.Tech.nmos.Device.Mosfet.vt0 in
    Float.max 0.0
      (0.5 -. ((1.0 -. (vt /. vdd)) /. (1.0 +. tech.Device.Tech.alpha)))
  in
  let onset_hold t trigger =
    if not config.input_slope then neg_infinity
    else
      match C.gate_of_output c trigger with
      | None -> neg_infinity (* primary input: a step *)
      | Some driver ->
        let s = slope.(driver.C.id) in
        if s = 0.0 then neg_infinity
        else t +. (slope_coeff *. vdd /. Float.abs s)
  in
  (* start or reverse the gate's transition when its logic target moved
     away from where it is heading; [trigger] is the input that changed *)
  let retarget ~trigger t i =
    let target = eval_target i in
    let o = out.(i) in
    match phase.(i) with
    | Idle when target <> level.(o) ->
      phase.(i) <- (if target then Rising else Falling);
      hold_until.(i) <- onset_hold t trigger;
      record_net t o v.(i)
    | Rising when not target ->
      phase.(i) <- Falling;
      record_net t o v.(i)
    | Falling when target ->
      phase.(i) <- Rising;
      record_net t o v.(i)
    | Idle | Rising | Falling -> ()
  in
  (* --- virtual ground and slopes ----------------------------------------- *)
  let discharging_sets () =
    let sets = Array.make n_blocks [] in
    let push i beta_wl =
      let b = block.(i) in
      sets.(b) <- { Vground.beta_wl; vin = vdd } :: sets.(b)
    in
    for i = 0 to n_gates - 1 do
      match phase.(i) with
      | Rising when gated_rising && v.(i) < vdd -> push i wl_up.(i)
      | Falling when (not gated_rising) && v.(i) > 0.0 -> push i beta_wl.(i)
      | Rising | Falling | Idle -> ()
    done;
    sets
  in
  (* a block's equilibrium is a pure function of its discharging set:
     re-solve only when the set differs from the last one solved *)
  let last_solve = Array.make n_blocks None in
  let solve_block sleep discharging =
    match sleep with
    | Cmos -> 0.0
    | Resistor r -> Vground.solve_resistor vg_cfg ~r discharging
    | Sleep_fet s -> Vground.solve_device vg_cfg ~sleep:s discharging
  in
  let vxs_of sets =
    Array.mapi
      (fun b sleep ->
        let set = sets.(b) in
        match (sleep, last_solve.(b)) with
        | Cmos, _ -> 0.0
        | _, Some (prev, vx) when List.equal ( = ) prev set -> vx
        | (Resistor _ | Sleep_fet _), _ ->
          let vx = solve_block sleep set in
          last_solve.(b) <- Some (set, vx);
          res.n_solves <- res.n_solves + 1;
          vx)
      sleeps
  in
  (* §2.3 reverse conduction: idle-low outputs ride at the virtual ground
     (a virtual Vdd pins idle-high outputs below vdd) *)
  let rc_floor = config.reverse_conduction && not gated_rising in
  let rc_ceil = config.reverse_conduction && gated_rising in
  (* one alpha-power factor per rail, shared by its gated devices *)
  let power = Array.make n_blocks 0.0 in
  let recompute_slopes vxs =
    for b = 0 to n_blocks - 1 do
      let vx = vxs.(b) in
      let vsb = if vg_cfg.Vground.body_effect then vx else 0.0 in
      power.(b) <-
        Device.Alpha_power.overdrive_power vg_cfg.Vground.model
          ~vgs:(vdd -. vx) ~vsb
    done;
    for i = 0 to n_gates - 1 do
      slope.(i) <-
        (match phase.(i) with
         | Idle -> 0.0
         | Rising when gated_rising ->
           gated_k.(i) *. power.(block.(i)) /. cl.(i)
         | Falling when not gated_rising ->
           -.(gated_k.(i) *. power.(block.(i))) /. cl.(i)
         | Rising | Falling -> ungated_slope.(i))
    done
  in
  let record_vx t_prev t vxs_prev vxs sets =
    let pre_t = Float.max t_prev (t -. 1e-16) in
    (* per-block traces *)
    Array.iteri
      (fun b cell ->
        if vxs.(b) <> vxs_prev.(b) then
          cell := (t, vxs.(b)) :: (pre_t, vxs_prev.(b)) :: !cell)
      res.vxb_points;
    (* headline trace: the worst rail *)
    let worst a = Array.fold_left Float.max 0.0 a in
    let vx = worst vxs and vx_prev = worst vxs_prev in
    if vx <> vx_prev then begin
      res.vx_points <- (t, vx) :: (pre_t, vx_prev) :: res.vx_points;
      if vx > res.vx_max then res.vx_max <- vx
    end;
    let i_total = ref 0.0 in
    Array.iteri
      (fun b set ->
        i_total := !i_total
                   +. Vground.total_current vg_cfg ~vx:vxs.(b) set)
      sets;
    let i_total = !i_total in
    let prev_i = match res.i_points with (_, i) :: _ -> i | [] -> 0.0 in
    if i_total <> prev_i then
      res.i_points <-
        (t, i_total) :: (pre_t, prev_i) :: res.i_points;
    if i_total > res.i_max then res.i_max <- i_total
  in
  (* --- breakpoint prediction --------------------------------------------- *)
  let next_breakpoint t ~vxs ~targets ~tau_of_block =
    let best = ref infinity in
    (* rails still relaxing toward equilibrium need refresh points *)
    for b = 0 to n_blocks - 1 do
      let tau = tau_of_block.(b) in
      if tau > 0.0 && Float.abs (vxs.(b) -. targets.(b)) > 1e-3 then
        best := Float.min !best (t +. (tau /. 3.0))
    done;
    for i = 0 to n_gates - 1 do
      let vi = v.(i) and s = slope.(i) in
      match phase.(i) with
      | Idle -> ()
      | Rising | Falling when hold_until.(i) > t ->
        best := Float.min !best hold_until.(i)
      | Rising ->
        if s > 0.0 then begin
          let ceil = if rc_ceil then vdd -. vxs.(block.(i)) else vdd in
          if (not level.(out.(i))) && vi < half then
            best := Float.min !best (t +. ((half -. vi) /. s));
          if vi < ceil then
            best := Float.min !best (t +. ((ceil -. vi) /. s))
        end
      | Falling ->
        if s < 0.0 then begin
          let fl = if rc_floor then vxs.(block.(i)) else 0.0 in
          if level.(out.(i)) && vi > half then
            best := Float.min !best (t +. ((half -. vi) /. s));
          if vi > fl then
            best := Float.min !best (t +. ((fl -. vi) /. s))
        end
    done;
    !best
  in
  (* --- main loop ---------------------------------------------------------- *)
  (* apply the input step *)
  let to_reeval : (int, C.net) Hashtbl.t = Hashtbl.create 32 in
  let queue_fanout n =
    (* CSR walk, no per-event list allocation *)
    Netlist.Event_sim.iter_fanout es n (fun gid ->
        Hashtbl.replace to_reeval gid n)
  in
  Array.iteri
    (fun i n ->
      let new_level = after.(i) = S.L1 in
      if new_level <> level.(n) then begin
        (* the pre-step anchor sits at negative time (t_start = 0);
           Pwl handles that and the step renders correctly *)
        record_net (t_start -. 1e-13) n v_net.(n);
        level.(n) <- new_level;
        v_net.(n) <- volt_of_level after.(i);
        record_net t_start n v_net.(n);
        queue_fanout n
      end)
    (C.inputs c);
  let vxs = ref (Array.make n_blocks 0.0) in
  (* RC relaxation of each rail when cx > 0: tau = cx * r_scale *)
  let tau_of_block =
    Array.map
      (fun sleep ->
        if config.cx <= 0.0 then 0.0
        else
          match sleep with
          | Cmos -> 0.0
          | Resistor r -> config.cx *. r
          | Sleep_fet s ->
            config.cx *. Device.Sleep.effective_resistance s)
      sleeps
  in
  let targets = ref (Array.make n_blocks 0.0) in
  let relax_state dt =
    if config.cx <= 0.0 then vxs := Array.copy !targets
    else
      Array.iteri
        (fun b tau ->
          if tau <= 0.0 then !vxs.(b) <- !targets.(b)
          else
            !vxs.(b) <-
              !targets.(b)
              +. ((!vxs.(b) -. !targets.(b)) *. exp (-.dt /. tau)))
        tau_of_block
  in
  let t = ref t_start in
  let process_reevals () =
    Hashtbl.iter (fun gid trigger -> retarget ~trigger !t gid) to_reeval;
    Hashtbl.reset to_reeval
  in
  process_reevals ();
  (* gate states are fixed from here to the slope update, so one
     discharging-set pass feeds both the rail solve and the current
     trace *)
  let sets = discharging_sets () in
  targets := vxs_of sets;
  let prev_state = Array.copy !vxs in
  relax_state 0.0;
  record_vx t_start t_start prev_state !vxs sets;
  recompute_slopes !vxs;
  let continue = ref true in
  while !continue do
    let t_next = next_breakpoint !t ~vxs:!vxs ~targets:!targets
        ~tau_of_block in
    if t_next = infinity then begin
      (* no pending breakpoints: either done or starved *)
      if Array.exists (fun p -> p <> Idle) phase then raise (Starved !t);
      continue := false
    end
    else begin
      res.n_events <- res.n_events + 1;
      if res.n_events > max_events then
        failwith "Breakpoint_sim: event limit exceeded";
      let dt = t_next -. !t in
      (* advance all active outputs linearly; [eps] absorbs the float
         roundoff of scheduling a breakpoint exactly at a crossing *)
      let eps = 1e-9 *. vdd in
      let vxs_now = !vxs in
      for i = 0 to n_gates - 1 do
        match phase.(i) with
        | Idle -> ()
        | (Rising | Falling) when hold_until.(i) >= t_next -> ()
        | (Rising | Falling) as ph ->
          let fl = if rc_floor then vxs_now.(block.(i)) else 0.0 in
          let ceil = if rc_ceil then vdd -. vxs_now.(block.(i)) else vdd in
          let v_new =
            Phys.Float_utils.clamp ~lo:fl ~hi:ceil
              (v.(i) +. (slope.(i) *. dt))
          in
          v.(i) <- v_new;
          let o = out.(i) in
          v_net.(o) <- v_new;
          (* threshold crossing, gated on the logical level so a
             crossing fires exactly once per traversal *)
          let crossed_up =
            ph = Rising && (not level.(o)) && v_new >= half -. eps
          in
          let crossed_dn = ph = Falling && level.(o) && v_new <= half +. eps in
          if crossed_up || crossed_dn then begin
            level.(o) <- crossed_up;
            queue_fanout o
          end;
          (* rail arrival *)
          (match ph with
           | Rising when v_new >= ceil -. eps ->
             v.(i) <- ceil;
             v_net.(o) <- ceil;
             phase.(i) <- Idle;
             record_net t_next o ceil
           | Falling when v_new <= fl +. eps ->
             v.(i) <- fl;
             v_net.(o) <- fl;
             phase.(i) <- Idle;
             record_net t_next o fl
           | Rising | Falling | Idle -> record_net t_next o v_new)
      done;
      t := t_next;
      res.t_last <- t_next;
      (* the rail relaxed toward the old equilibrium during [dt] *)
      let prev_state = Array.copy !vxs in
      relax_state dt;
      process_reevals ();
      let sets = discharging_sets () in
      targets := vxs_of sets;
      if config.cx <= 0.0 then vxs := Array.copy !targets;
      record_vx res.t_last t_next prev_state !vxs sets;
      recompute_slopes !vxs
    end
  done;
  (* close the traces *)
  let worst = Array.fold_left Float.max 0.0 !vxs in
  res.vx_points <- (res.t_last, worst) :: res.vx_points;
  Array.iteri
    (fun b cell -> cell := (res.t_last, !vxs.(b)) :: !cell)
    res.vxb_points;
  res.i_points <- (res.t_last, 0.0) :: res.i_points;
  res

let simulate ?config ?(obs = Obs.disabled) c ~before ~after =
  Obs.Span.with_ obs "bp.simulate" @@ fun () ->
  let r = simulate_core ?config c ~before ~after in
  if Obs.metrics_on obs then begin
    Obs.incr obs "bp.simulations";
    Obs.incr obs ~by:r.n_events "bp.events";
    Obs.incr obs ~by:r.n_solves "bp.rail_solves"
  end;
  r

let pack_ints groups =
  Array.of_list
    (List.concat_map
       (fun (w, v) -> Array.to_list (S.bits_of_int ~width:w v))
       groups)

let simulate_ints ?config ?obs c ~before ~after =
  simulate ?config ?obs c ~before:(pack_ints before) ~after:(pack_ints after)

let waveform res n =
  match res.wave_points.(n) with
  | [] -> Phys.Pwl.constant 0.0
  | pts -> Phys.Pwl.create (List.rev pts)

(* a rail or current trace, anchored at 0 just before its first event so
   the initial step renders *)
let anchored_trace = function
  | [] -> Phys.Pwl.constant 0.0
  | pts ->
    let t_first =
      List.fold_left (fun acc (t, _) -> Float.min acc t) infinity pts
    in
    Phys.Pwl.create ((t_first -. 1e-13, 0.0) :: List.rev pts)

let vground_waveform res = anchored_trace res.vx_points

let vground_waveform_block res b =
  if b < 0 || b >= Array.length res.vxb_points then
    invalid_arg "Breakpoint_sim.vground_waveform_block";
  anchored_trace !(res.vxb_points.(b))

let discharge_current_waveform res = anchored_trace res.i_points
let vx_peak res = res.vx_max
let t_finish res = res.t_last
let events res = res.n_events

let peak_discharge_current res = res.i_max

let net_delay res n =
  Spice.Measure.net_delay (waveform res n) ~vdd:res.vdd ~t_start

let critical_delay res =
  Spice.Measure.critical_delay (C.outputs res.circuit) (net_delay res)
