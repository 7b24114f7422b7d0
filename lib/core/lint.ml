module C = Netlist.Circuit

type severity = Info | Warning

type finding = {
  rule : string;
  severity : severity;
  message : string;
}

(* the weak-driver rule: each gate whose load exceeds 20 unit-inverter
   input capacitances per unit of its strength, with that load and
   budget *)
let over_budget c =
  let tech = C.tech c in
  let unit_cin =
    (Netlist.Gate.drive tech ~strength:1.0 Netlist.Gate.Inv).Netlist.Gate.cin
  in
  Array.to_list (C.gates c)
  |> List.filter_map (fun (g : C.gate_inst) ->
         let cl = C.load_capacitance c g.C.output in
         let budget = 20.0 *. unit_cin *. g.C.strength in
         if cl > budget then Some (g, cl, budget) else None)

let weak_gates c =
  List.map (fun ((g : C.gate_inst), _, _) -> g.C.id) (over_budget c)

let weak_drivers c =
  List.map
    (fun ((g : C.gate_inst), cl, budget) ->
      { rule = "weak-driver";
        severity = Warning;
        message =
          Printf.sprintf
            "%s driving %s carries %s against a budget of %s (raise its \
             strength)"
            (Netlist.Gate.name g.C.kind)
            (C.net_name c g.C.output)
            (Phys.Units.to_eng_string ~unit:"F" cl)
            (Phys.Units.to_eng_string ~unit:"F" budget) })
    (over_budget c)

let wide_gates c =
  Array.to_list (C.gates c)
  |> List.filter_map (fun (g : C.gate_inst) ->
         let depth = Netlist.Gate.pulldown_stack_depth g.C.kind in
         if depth > 4 then
           Some
             { rule = "wide-gate";
               severity = Info;
               message =
                 Printf.sprintf
                   "%s at %s stacks %d devices; the equivalent-inverter \
                    model is first-order here"
                   (Netlist.Gate.name g.C.kind)
                   (C.net_name c g.C.output)
                   depth }
         else None)

let discharge_hotspot ~fraction ~samples c =
  let n_inputs = Array.length (C.inputs c) in
  if n_inputs = 0 || n_inputs > 30 then []
  else begin
    let st = Random.State.make [| 23 |] in
    let widths = List.init n_inputs (fun _ -> 1) in
    let random_vec () =
      List.map (fun w -> (w, Random.State.int st (1 lsl w))) widths
    in
    let es = Netlist.Event_sim.of_circuit c in
    let worst = ref 0 and worst_pair = ref None in
    for _ = 1 to samples do
      let before = random_vec () and after = random_vec () in
      let m =
        Netlist.Event_sim.transition es
          ~before:(Netlist.Circuit.pack_ints c before)
          ~after:(Netlist.Circuit.pack_ints c after)
      in
      let falling = List.length (Netlist.Event_sim.falling_gates es m) in
      if falling > !worst then begin
        worst := falling;
        worst_pair := Some (before, after)
      end
    done;
    let total = C.num_gates c in
    if float_of_int !worst > fraction *. float_of_int total then
      [ { rule = "discharge-hotspot";
          severity = Warning;
          message =
            Printf.sprintf
              "a sampled transition discharges %d of %d gates at once; \
               expect severe virtual-ground bounce"
              !worst total } ]
    else []
  end

let dangling_outputs c =
  let is_output n = Array.exists (fun o -> o = n) (C.outputs c) in
  Array.to_list (C.gates c)
  |> List.filter_map (fun (g : C.gate_inst) ->
         if C.fanout c g.C.output = [] && not (is_output g.C.output) then
           Some
             { rule = "dangling-output";
               severity = Warning;
               message =
                 Printf.sprintf "%s output %s drives nothing"
                   (Netlist.Gate.name g.C.kind)
                   (C.net_name c g.C.output) }
         else None)

let unused_inputs c =
  Array.to_list (C.inputs c)
  |> List.filter_map (fun n ->
         if C.fanout c n = [] then
           Some
             { rule = "unused-input";
               severity = Info;
               message =
                 Printf.sprintf "primary input %s is never read"
                   (C.net_name c n) }
         else None)

let check ?(hotspot_fraction = 0.5) c =
  weak_drivers c
  @ wide_gates c
  @ discharge_hotspot ~fraction:hotspot_fraction ~samples:64 c
  @ dangling_outputs c
  @ unused_inputs c

let pp_finding fmt f =
  Format.fprintf fmt "[%s] %s: %s"
    (match f.severity with Info -> "info" | Warning -> "warn")
    f.rule f.message
