module C = Netlist.Circuit
module G = Netlist.Gate

type t = {
  circuit : C.t;
  inputs : C.net array;
}

let kinds =
  [| G.Inv; G.Nand 2; G.Nand 3; G.Nor 2; G.And 2; G.Or 2; G.Xor2; G.Aoi21;
     G.Oai21 |]

let make ?(seed = 7) tech ~inputs ~gates =
  let cl = 10e-15 in
  if inputs < 1 then invalid_arg "Random_logic.make: inputs < 1";
  if gates < 1 then invalid_arg "Random_logic.make: gates < 1";
  let st = Random.State.make [| seed |] in
  let b = C.builder tech in
  let ins =
    Array.init inputs (fun i ->
        C.add_input ~name:(Printf.sprintf "i%d" i) b)
  in
  (* creation-order net pool; index [count-1-k] reproduces the draw the
     old newest-first list made at [List.nth _ k], so seeded circuits
     are unchanged while 100k-gate clouds build in O(gates) instead of
     O(gates^2) *)
  let nets = Array.make (inputs + gates) 0 in
  Array.blit ins 0 nets 0 inputs;
  let n_nets = ref inputs in
  let read = Hashtbl.create (gates * 2) in
  let pick () =
    let n = nets.(!n_nets - 1 - Random.State.int st !n_nets) in
    Hashtbl.replace read n ();
    n
  in
  let produced = ref [] in
  for _ = 1 to gates do
    let kind = kinds.(Random.State.int st (Array.length kinds)) in
    let pins = List.init (G.arity kind) (fun _ -> pick ()) in
    let out = C.add_gate b kind pins in
    nets.(!n_nets) <- out;
    incr n_nets;
    produced := out :: !produced
  done;
  (* every unread gate output becomes a loaded primary output *)
  let sinks = List.filter (fun n -> not (Hashtbl.mem read n)) !produced in
  List.iter
    (fun n ->
      C.add_load b n cl;
      C.mark_output b n)
    (List.rev sinks);
  { circuit = C.freeze b; inputs = ins }
