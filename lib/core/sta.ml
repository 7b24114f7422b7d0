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

let on_gated_rail gating gid =
  let b = gating.block_of_gate.(gid) in
  b >= 0 && (not gating.vt_high.(gid)) && gating.sleep_wl.(b) > 0.0

(* Co-discharge sets for the gated timer: a discharge wave sweeps the
   DAG level by level, so the low-Vt gates that pull current through one
   cluster device simultaneously are the same-cluster gates at the same
   topological depth (the pipeline-wave mutual exclusion Hierarchy
   documents).  Each (cluster, depth) group shares one virtual-ground
   equilibrium — the Fig. 8 N-inverter model.  Gates at the same depth
   behind different devices do NOT load each other's rail: splitting a
   wide level across clusters is exactly how the optimizer buys
   isolation.

   An equilibrium is a pure function of the group's device W/L and
   member ids: a slot re-solves only when a query's differ. *)
type slot = {
  mutable wl : float;  (* > 0, so equal iff the same bits *)
  mutable ids : int array;
  mutable len : int;   (* -1 once a query's member differs *)
  mutable fill : int;
  mutable vx : float;
}

type timer = {
  circuit : C.t;
  low : Delay_model.t;
  pull_down : float array;            (* per gate, as are the next three *)
  load : float array;
  rise : float array;                 (* low-Vt *)
  ideal : float array;                (* low-Vt on an ideal ground *)
  high : int -> float;                (* high-Vt, on first need *)
  depths : (int array * int) Lazy.t;  (* and the logic depth *)
  mutable slots : slot array;         (* cluster-major, depth 1 first *)
}

(* One per-gate rule for every cell: Eq. 3 against the cell's Vt card,
   the falling edge seeing the cell's virtual-ground level [vx]. *)
let cell_delay model ~vx ~beta_wl cl rise =
  Float.max (Delay_model.fall_delay model ~vx ~beta_wl ~cl) rise

let prepare ?body_effect circuit =
  let tech = C.tech circuit in
  let n = C.num_gates circuit in
  let pull_down = Array.make n 0.0 and pull_up = Array.make n 0.0 in
  let load = Array.make n 0.0 and rise = Array.make n 0.0 in
  let low = Delay_model.of_tech ?body_effect tech in
  let rise_of model i =
    Delay_model.rise_delay model ~wl_pull_up:pull_up.(i) ~cl:load.(i)
  in
  let ideal_of model i rise =
    cell_delay model ~vx:0.0 ~beta_wl:pull_down.(i) load.(i) rise
  in
  let ideal =
    Array.map
      (fun (g : C.gate_inst) ->
        let i = g.C.id in
        let d = Netlist.Gate.drive tech ~strength:g.C.strength g.C.kind in
        pull_down.(i) <- d.Netlist.Gate.wl_pull_down;
        pull_up.(i) <- d.Netlist.Gate.wl_pull_up;
        load.(i) <- C.load_capacitance circuit g.C.output;
        rise.(i) <- rise_of low i;
        ideal_of low i rise.(i))
      (C.gates circuit)
  in
  { circuit; low; pull_down; load; rise; ideal;
    (* a high-Vt cell sits on the real ground: no bounce, just the
       weaker drive of the sleep-card devices *)
    high =
      (let m = lazy (Delay_model.of_tech ?body_effect (high_vt_view tech)) in
       let h = Array.make n Float.nan in
       fun i ->
         if Float.is_nan h.(i) then begin
           let m = Lazy.force m in
           h.(i) <- ideal_of m i (rise_of m i)
         end;
         h.(i));
    depths = lazy (C.gate_depths circuit, C.logic_depth circuit);
    slots = [||] }

let gated_delays t g =
  validate_gating t.circuit g;
  let depths, levels = Lazy.force t.depths in
  let n_slots = Array.length g.sleep_wl * levels in
  if Array.length t.slots <> n_slots then
    t.slots <-
      Array.init n_slots (fun _ ->
          { wl = 0.0; ids = [||]; len = 0; fill = 0; vx = 0.0 });
  let slot gid =
    t.slots.((g.block_of_gate.(gid) * levels) + depths.(gid) - 1)
  in
  Array.iter (fun s -> s.fill <- 0) t.slots;
  for gid = 0 to Array.length depths - 1 do
    if on_gated_rail g gid then begin
      let s = slot gid in
      if s.fill = Array.length s.ids then
        s.ids <- Array.append s.ids (Array.make (s.fill + 4) 0);
      if s.ids.(s.fill) <> gid then (s.ids.(s.fill) <- gid; s.len <- -1);
      s.fill <- s.fill + 1
    end
  done;
  Array.iteri
    (fun i s ->
      let wl = g.sleep_wl.(i / levels) in
      if s.fill > 0 && (s.fill <> s.len || s.wl <> wl) then begin
        let r =
          Device.Sleep.effective_resistance
            (Device.Sleep.nmos_footer (C.tech t.circuit) ~wl)
        in
        s.vx <-
          Vground.solve_resistor t.low.Delay_model.vg ~r
            (List.init s.fill (fun j ->
                 { Vground.beta_wl = t.pull_down.(s.ids.(j));
                   vin = t.low.Delay_model.vdd }));
        s.wl <- wl;
        s.len <- s.fill
      end)
    t.slots;
  Array.mapi
    (fun gid ideal ->
      if g.vt_high.(gid) then t.high gid
      else if on_gated_rail g gid then
        cell_delay t.low ~vx:(slot gid).vx ~beta_wl:t.pull_down.(gid)
          t.load.(gid) t.rise.(gid)
      else ideal)
    t.ideal

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

let analyze_with ?gating timer =
  let delays =
    match gating with
    | None -> timer.ideal
    | Some g -> gated_delays timer g
  in
  { circuit = timer.circuit;
    delays;
    arrivals = propagate timer.circuit ~delay:(fun g -> delays.(g.C.id)) }

let analyze ?body_effect ?gating circuit =
  analyze_with ?gating (prepare ?body_effect circuit)

let gate_delay t gid = t.delays.(gid)
let arrival t net = t.arrivals.(net)

(* the critical path ending at [endpoint] *)
let path_to (t : t) endpoint =
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

let critical_path (t : t) = path_to t (fst (worst_output t.circuit t.arrivals))
let critical_arrival (t : t) = snd (worst_output t.circuit t.arrivals)

let mtcmos_underestimate t circuit ~sleep ~vectors =
  let sta_delay = critical_arrival t in
  let simulated, _ =
    Sizing.worst_delay_bp
      ~config:{ Breakpoint_sim.default_config with Breakpoint_sim.sleep }
      circuit vectors
  in
  (simulated -. sta_delay) /. sta_delay
