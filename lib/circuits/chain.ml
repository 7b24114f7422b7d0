module C = Netlist.Circuit

type t = {
  circuit : C.t;
  input : C.net;
  taps : C.net array;
}

let inverter_chain ?(cl = 20e-15) tech ~length =
  if length < 1 then invalid_arg "Chain.inverter_chain: length < 1";
  let b = C.builder tech in
  let input = C.add_input ~name:"in" b in
  let taps = Array.make length 0 in
  let last =
    List.fold_left
      (fun prev i ->
        let out =
          C.add_gate ~name:(Printf.sprintf "s%d" i) b Netlist.Gate.Inv
            [ prev ]
        in
        taps.(i) <- out;
        out)
      input
      (List.init length (fun i -> i))
  in
  C.add_load b last cl;
  C.mark_output b last;
  { circuit = C.freeze b; input; taps }
