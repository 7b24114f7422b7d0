type config = {
  sleep_wl : float option;
  cx_extra : float;
  resistor_model : float option;
  pmos_header : bool;
}

let default =
  { sleep_wl = None; cx_extra = 0.0; resistor_model = None;
    pmos_header = false }

let mtcmos ~wl = { default with sleep_wl = Some wl }

type instance = {
  netlist : Transistor.t;
  node_of_net : Transistor.node array;
  vdd_node : Transistor.node;
  vground : Transistor.node option;
}

(* Series-parallel conduction networks.  [Pin i] is a device gated by the
   stage's i-th input. *)
type sp = Pin of int | Series of sp list | Parallel of sp list

let rec max_path_len = function
  | Pin _ -> 1
  | Series l -> List.fold_left (fun acc e -> acc + max_path_len e) 0 l
  | Parallel l -> List.fold_left (fun acc e -> Int.max acc (max_path_len e)) 0 l

(* Primitive stages only; composites are rewritten in [stages_of_kind]. *)
let pulldown_net : Gate.kind -> sp = function
  | Gate.Inv -> Pin 0
  | Gate.Nand n -> Series (List.init n (fun i -> Pin i))
  | Gate.Nor n -> Parallel (List.init n (fun i -> Pin i))
  | Gate.Carry_inv ->
    Parallel
      [ Series [ Pin 0; Pin 1 ];
        Series [ Pin 2; Parallel [ Pin 0; Pin 1 ] ] ]
  | Gate.Sum_inv ->
    Parallel
      [ Series [ Pin 0; Pin 1; Pin 2 ];
        Series [ Pin 3; Parallel [ Pin 0; Pin 1; Pin 2 ] ] ]
  | Gate.Aoi21 -> Parallel [ Series [ Pin 0; Pin 1 ]; Pin 2 ]
  | Gate.Oai21 -> Series [ Parallel [ Pin 0; Pin 1 ]; Pin 2 ]
  | Gate.Buf | Gate.And _ | Gate.Or _ | Gate.Xor2 | Gate.Xnor2 ->
    invalid_arg "Expand.pulldown_net: composite kind"

let pullup_net : Gate.kind -> sp = function
  | Gate.Inv -> Pin 0
  | Gate.Nand n -> Parallel (List.init n (fun i -> Pin i))
  | Gate.Nor n -> Series (List.init n (fun i -> Pin i))
  (* mirror topology: the pull-up reuses the pull-down structure *)
  | Gate.Carry_inv -> pulldown_net Gate.Carry_inv
  | Gate.Sum_inv -> pulldown_net Gate.Sum_inv
  (* AOI/OAI pull-ups are the duals of their pull-downs *)
  | Gate.Aoi21 -> Series [ Parallel [ Pin 0; Pin 1 ]; Pin 2 ]
  | Gate.Oai21 -> Parallel [ Series [ Pin 0; Pin 1 ]; Pin 2 ]
  | Gate.Buf | Gate.And _ | Gate.Or _ | Gate.Xor2 | Gate.Xnor2 ->
    invalid_arg "Expand.pullup_net: composite kind"

(* A primitive CMOS stage: complementary networks between the output, the
   rails, gated by [inputs]. *)
type stage = {
  s_kind : Gate.kind; (* primitive *)
  s_inputs : Transistor.node array;
  s_output : Transistor.node;
  s_strength : float;
}

let expand ?(config = default) circuit ~stimuli =
  let tech = Circuit.tech circuit in
  let vdd = tech.Device.Tech.vdd in
  let b = Transistor.builder () in
  let vdd_node = Transistor.node ~name:"vdd" b in
  Transistor.add b
    (Transistor.Vsrc
       { pos = vdd_node; neg = Transistor.ground;
         wave = Phys.Pwl.constant vdd });
  (* one node per circuit net *)
  let node_of_net =
    Array.init (Circuit.num_nets circuit) (fun n ->
        Transistor.node ~name:(Circuit.net_name circuit n) b)
  in
  (* virtual rail: a ground rail gated by an NMOS footer, or (with
     [pmos_header]) a Vdd rail gated by a PMOS header *)
  let vground =
    match (config.sleep_wl, config.resistor_model) with
    | None, None -> None
    | _ ->
      Some
        (Transistor.node
           ~name:(if config.pmos_header then "vvdd" else "vgnd")
           b)
  in
  let pulldown_rail =
    match vground with
    | Some vg when not config.pmos_header -> vg
    | Some _ | None -> Transistor.ground
  in
  let pullup_rail =
    match vground with
    | Some vv when config.pmos_header -> vv
    | Some _ | None -> vdd_node
  in
  (match vground with
   | None -> ()
   | Some vg ->
     let far_rail =
       if config.pmos_header then vdd_node else Transistor.ground
     in
     (match config.resistor_model with
      | Some r ->
        Transistor.add b (Transistor.Res { pos = vg; neg = far_rail; r })
      | None ->
        let wl =
          match config.sleep_wl with
          | Some wl -> wl
          | None -> invalid_arg "Expand: virtual rail without sleep size"
        in
        let sleep_gate = Transistor.node ~name:"sleep_en" b in
        (* active mode: the sleep device is on *)
        let v_gate = if config.pmos_header then 0.0 else vdd in
        Transistor.add b
          (Transistor.Vsrc
             { pos = sleep_gate; neg = Transistor.ground;
               wave = Phys.Pwl.constant v_gate });
        if config.pmos_header then
          Transistor.add b
            (Transistor.Mos
               { params = tech.Device.Tech.sleep_pmos;
                 wl;
                 drain = vg;
                 gate = sleep_gate;
                 source = vdd_node;
                 body = vdd_node })
        else
          Transistor.add b
            (Transistor.Mos
               { params = tech.Device.Tech.sleep_nmos;
                 wl;
                 drain = vg;
                 gate = sleep_gate;
                 source = Transistor.ground;
                 body = Transistor.ground });
        (* the sleep device's own junction capacitance *)
        Transistor.add b
          (Transistor.Cap
             { pos = vg; neg = Transistor.ground;
               c = wl *. tech.Device.Tech.cj_per_wl }));
     if config.cx_extra > 0.0 then
       Transistor.add b
         (Transistor.Cap
            { pos = vg; neg = Transistor.ground; c = config.cx_extra }));
  (* small capacitance attached to composite-internal and stack-internal
     nodes so every node has a capacitive path *)
  let internal_cap = 0.5 *. tech.Device.Tech.cj_per_wl in
  let fresh_internal () =
    let n = Transistor.node b in
    Transistor.add b
      (Transistor.Cap { pos = n; neg = Transistor.ground; c = internal_cap });
    n
  in
  (* Rewrite a gate instance into primitive stages, allocating internal
     nodes (with a representative wire+pin capacitance) for composites. *)
  let stage_wire_cap strength =
    let d = Gate.drive tech ~strength Gate.Inv in
    d.Gate.cin +. d.Gate.cout_j
  in
  let fresh_stage_net strength =
    let n = Transistor.node b in
    Transistor.add b
      (Transistor.Cap
         { pos = n; neg = Transistor.ground; c = stage_wire_cap strength });
    n
  in
  let stages_of_gate (g : Circuit.gate_inst) : stage list =
    let ins = Array.map (fun n -> node_of_net.(n)) g.Circuit.inputs in
    let out = node_of_net.(g.Circuit.output) in
    let st = g.Circuit.strength in
    let prim kind inputs output =
      { s_kind = kind; s_inputs = inputs; s_output = output;
        s_strength = st }
    in
    match g.Circuit.kind with
    | Gate.Inv | Gate.Nand _ | Gate.Nor _ | Gate.Carry_inv | Gate.Sum_inv
    | Gate.Aoi21 | Gate.Oai21 ->
      [ prim g.Circuit.kind ins out ]
    | Gate.Buf ->
      let mid = fresh_stage_net st in
      [ prim Gate.Inv ins mid; prim Gate.Inv [| mid |] out ]
    | Gate.And n ->
      let mid = fresh_stage_net st in
      [ prim (Gate.Nand n) ins mid; prim Gate.Inv [| mid |] out ]
    | Gate.Or n ->
      let mid = fresh_stage_net st in
      [ prim (Gate.Nor n) ins mid; prim Gate.Inv [| mid |] out ]
    | Gate.Xor2 ->
      (* out = nand (nand a nab) (nand b nab) with nab = nand a b *)
      let a = ins.(0) and c = ins.(1) in
      let nab = fresh_stage_net st in
      let l = fresh_stage_net st in
      let r = fresh_stage_net st in
      [ prim (Gate.Nand 2) [| a; c |] nab;
        prim (Gate.Nand 2) [| a; nab |] l;
        prim (Gate.Nand 2) [| c; nab |] r;
        prim (Gate.Nand 2) [| l; r |] out ]
    | Gate.Xnor2 ->
      let a = ins.(0) and c = ins.(1) in
      let nab = fresh_stage_net st in
      let l = fresh_stage_net st in
      let r = fresh_stage_net st in
      let x = fresh_stage_net st in
      [ prim (Gate.Nand 2) [| a; c |] nab;
        prim (Gate.Nand 2) [| a; nab |] l;
        prim (Gate.Nand 2) [| c; nab |] r;
        prim (Gate.Nand 2) [| l; r |] x;
        prim Gate.Inv [| x |] out ]
  in
  (* Instantiate one conduction network.  [top] is the output side,
     [bottom] the rail side. *)
  let rec build_net ~params ~wl ~pins ~top ~bottom = function
    | Pin i ->
      Transistor.add b
        (Transistor.Mos
           { params; wl; drain = top; gate = pins.(i); source = bottom;
             body =
               (match params.Device.Mosfet.polarity with
                | Device.Mosfet.Nmos -> Transistor.ground
                | Device.Mosfet.Pmos -> vdd_node) })
    | Series l ->
      let rec chain top = function
        | [] -> invalid_arg "Expand: empty series network"
        | [ last ] -> build_net ~params ~wl ~pins ~top ~bottom last
        | e :: rest ->
          let mid = fresh_internal () in
          build_net ~params ~wl ~pins ~top ~bottom:mid e;
          chain mid rest
      in
      chain top l
    | Parallel l ->
      List.iter (build_net ~params ~wl ~pins ~top ~bottom) l
  in
  let emit_stage (s : stage) =
    let pd = pulldown_net s.s_kind in
    let pu = pullup_net s.s_kind in
    let wl_n =
      s.s_strength *. tech.Device.Tech.wl_n_unit
      *. float_of_int (max_path_len pd)
    in
    let wl_p =
      s.s_strength *. tech.Device.Tech.wl_p_unit
      *. float_of_int (max_path_len pu)
    in
    build_net ~params:tech.Device.Tech.nmos ~wl:wl_n ~pins:s.s_inputs
      ~top:s.s_output ~bottom:pulldown_rail pd;
    build_net ~params:tech.Device.Tech.pmos ~wl:wl_p ~pins:s.s_inputs
      ~top:s.s_output ~bottom:pullup_rail pu
  in
  Array.iter
    (fun g -> List.iter emit_stage (stages_of_gate g))
    (Circuit.gates circuit);
  (* lumped load on every circuit net *)
  Array.iteri
    (fun net node ->
      let c = Circuit.load_capacitance circuit net in
      if c > 0.0 then
        Transistor.add b
          (Transistor.Cap { pos = node; neg = Transistor.ground; c }))
    node_of_net;
  (* constant ties *)
  Array.iter
    (fun (net, value) ->
      let v = if value then vdd else 0.0 in
      Transistor.add b
        (Transistor.Vsrc
           { pos = node_of_net.(net); neg = Transistor.ground;
             wave = Phys.Pwl.constant v }))
    (Circuit.ties circuit);
  (* stimuli *)
  let primary = Circuit.inputs circuit in
  let is_input n = Array.exists (fun i -> i = n) primary in
  List.iter
    (fun (net, wave) ->
      if not (is_input net) then
        invalid_arg "Expand: stimulus on a non-input net";
      Transistor.add b
        (Transistor.Vsrc
           { pos = node_of_net.(net); neg = Transistor.ground; wave }))
    stimuli;
  Array.iter
    (fun n ->
      if not (List.mem_assoc n stimuli) then
        invalid_arg
          (Printf.sprintf "Expand: primary input %s has no stimulus"
             (Circuit.net_name circuit n)))
    primary;
  { netlist = Transistor.freeze b; node_of_net; vdd_node; vground }
