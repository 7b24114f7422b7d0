module C = Netlist.Circuit

type t = {
  circuit : C.t;
  input : C.net;
  stage_nets : C.net array array;
}

let make ?(strength = 1.0) tech ~stages ~fanout =
  let cl = 50e-15 in
  if stages < 1 then invalid_arg "Inverter_tree.make: stages < 1";
  if fanout < 1 then invalid_arg "Inverter_tree.make: fanout < 1";
  let b = C.builder tech in
  let input = C.add_input ~name:"in" b in
  let rec grow stage drivers acc =
    if stage > stages then List.rev acc
    else begin
      let outs =
        List.concat_map
          (fun driver ->
            let width = if stage = 1 then 1 else fanout in
            List.init width (fun k ->
                ignore k;
                C.add_gate ~strength b Netlist.Gate.Inv [ driver ]))
          drivers
      in
      grow (stage + 1) outs (Array.of_list outs :: acc)
    end
  in
  let stage_nets = Array.of_list (grow 1 [ input ] []) in
  let leaves = stage_nets.(stages - 1) in
  Array.iter
    (fun n ->
      C.add_load b n cl;
      C.mark_output b n)
    leaves;
  { circuit = C.freeze b; input; stage_nets }

let leaf_net t = t.stage_nets.(Array.length t.stage_nets - 1).(0)

