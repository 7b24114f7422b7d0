type state = Signal.state

let eval c ins =
  let primary = Circuit.inputs c in
  if Array.length ins <> Array.length primary then
    invalid_arg "Logic_sim.eval: input length mismatch";
  let state = Array.make (Circuit.num_nets c) Signal.X in
  Array.iteri (fun i n -> state.(n) <- ins.(i)) primary;
  Array.iter
    (fun (n, v) -> state.(n) <- Signal.of_bool v)
    (Circuit.ties c);
  Array.iter
    (fun (g : Circuit.gate_inst) ->
      let pins = Array.map (fun n -> state.(n)) g.Circuit.inputs in
      state.(g.Circuit.output) <- Gate.logic g.Circuit.kind pins)
    (Circuit.gates c);
  state

let pack_ints = Circuit.pack_ints

let eval_ints c groups = eval c (pack_ints c groups)

let outputs_of c state =
  Array.map (fun n -> state.(n)) (Circuit.outputs c)

let output_int c state = Signal.int_of_bits (outputs_of c state)

let switched_gates c a b =
  Array.to_list (Circuit.gates c)
  |> List.filter_map (fun (g : Circuit.gate_inst) ->
         let n = g.Circuit.output in
         if not (Signal.equal a.(n) b.(n)) then Some g.Circuit.id else None)

let falling_gates c a b =
  Array.to_list (Circuit.gates c)
  |> List.filter_map (fun (g : Circuit.gate_inst) ->
         let n = g.Circuit.output in
         match (a.(n), b.(n)) with
         | Signal.L1, Signal.L0 -> Some g.Circuit.id
         | (Signal.L0 | Signal.L1 | Signal.X), _ -> None)

let activity c a b = List.length (switched_gates c a b)
