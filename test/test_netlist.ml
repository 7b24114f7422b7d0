(* Netlist-layer tests: signals, gates, circuits, transistor netlists,
   expansion. *)

module S = Netlist.Signal
module G = Netlist.Gate
module C = Netlist.Circuit

let tech = Fixtures.tech

let test_signal_ops () =
  Alcotest.(check char) "not 0" '1' (S.to_char (S.lnot S.L0));
  Alcotest.(check char) "not x" 'x' (S.to_char (S.lnot S.X));
  Alcotest.(check char) "and short-circuit" '0'
    (S.to_char (S.land_ S.L0 S.X));
  Alcotest.(check char) "or short-circuit" '1' (S.to_char (S.lor_ S.X S.L1));
  Alcotest.(check char) "xor with x" 'x' (S.to_char (S.lxor_ S.L1 S.X));
  Alcotest.(check char) "maj3 known" '1'
    (S.to_char (S.majority3 S.L1 S.L1 S.X));
  Alcotest.(check char) "maj3 low" '0'
    (S.to_char (S.majority3 S.L0 S.X S.L0));
  Alcotest.(check char) "maj3 unknown" 'x'
    (S.to_char (S.majority3 S.L1 S.L0 S.X));
  Alcotest.(check char) "parity" '1'
    (S.to_char (S.parity [ S.L1; S.L1; S.L1 ]))

let test_signal_ints () =
  let bits = S.bits_of_int ~width:4 0b1010 in
  Alcotest.(check (option int)) "roundtrip" (Some 10) (S.int_of_bits bits);
  Alcotest.(check (option int)) "x poisons" None
    (S.int_of_bits [| S.L1; S.X |]);
  Alcotest.check_raises "overflow"
    (Invalid_argument "Signal.bits_of_int: value does not fit") (fun () ->
      ignore (S.bits_of_int ~width:2 5))

let test_aoi_oai_logic () =
  let l b = S.of_bool b in
  for v = 0 to 7 do
    let a = v land 1 = 1 and b = v land 2 = 2 and c = v land 4 = 4 in
    Alcotest.(check char) "aoi21"
      (S.to_char (l (not ((a && b) || c))))
      (S.to_char (G.logic G.Aoi21 [| l a; l b; l c |]));
    Alcotest.(check char) "oai21"
      (S.to_char (l (not ((a || b) && c))))
      (S.to_char (G.logic G.Oai21 [| l a; l b; l c |]))
  done;
  (* 6T each at transistor level *)
  let bld = C.builder tech in
  let a = C.add_input bld in
  let b2 = C.add_input bld in
  let c2 = C.add_input bld in
  let o1 = C.add_gate bld G.Aoi21 [ a; b2; c2 ] in
  let o2 = C.add_gate bld G.Oai21 [ a; b2; c2 ] in
  C.mark_output bld o1;
  C.mark_output bld o2;
  let circ = C.freeze bld in
  Alcotest.(check int) "12T total" 12 (C.transistor_count circ);
  let stim = Phys.Pwl.constant 0.0 in
  let inst =
    Netlist.Expand.expand circ
      ~stimuli:[ (a, stim); (b2, stim); (c2, stim) ]
  in
  Alcotest.(check int) "expanded 12 devices" 12
    (Netlist.Transistor.count inst.Netlist.Expand.netlist `Mos)

let test_gate_logic () =
  let l b = S.of_bool b in
  (* exhaustive truth tables for the primitive kinds *)
  for v = 0 to 7 do
    let a = v land 1 = 1 and b = v land 2 = 2 and c = v land 4 = 4 in
    Alcotest.(check char) "nand3"
      (S.to_char (l (not (a && b && c))))
      (S.to_char (G.logic (G.Nand 3) [| l a; l b; l c |]));
    Alcotest.(check char) "nor3"
      (S.to_char (l (not (a || b || c))))
      (S.to_char (G.logic (G.Nor 3) [| l a; l b; l c |]));
    let maj = (a && b) || (b && c) || (a && c) in
    Alcotest.(check char) "carry_inv = not majority"
      (S.to_char (l (not maj)))
      (S.to_char (G.logic G.Carry_inv [| l a; l b; l c |]));
    let parity = (a <> b) <> c in
    Alcotest.(check char) "sum_inv = not parity"
      (S.to_char (l (not parity)))
      (S.to_char (G.logic G.Sum_inv [| l a; l b; l c; l (not maj) |]))
  done;
  Alcotest.(check char) "xor2" '1'
    (S.to_char (G.logic G.Xor2 [| S.L1; S.L0 |]));
  Alcotest.(check char) "xnor2" '1'
    (S.to_char (G.logic G.Xnor2 [| S.L1; S.L1 |]));
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Gate.logic inv: arity mismatch") (fun () ->
      ignore (G.logic G.Inv [| S.L0; S.L1 |]))

(* eval_levels is logic on two-valued levels: every kind, every input
   combination, pins read through an index array *)
let test_gate_eval_levels () =
  let kinds =
    [ G.Inv; G.Buf; G.Xor2; G.Xnor2; G.Aoi21; G.Oai21; G.Carry_inv;
      G.Sum_inv ]
    @ List.concat_map
        (fun n -> [ G.Nand n; G.Nor n; G.And n; G.Or n ])
        [ 1; 2; 3; 4 ]
  in
  List.iter
    (fun kind ->
      let n = G.arity kind in
      (* pin k reads net n - 1 - k of a level array laid out in reverse *)
      let pins = Array.init n (fun k -> n - 1 - k) in
      for v = 0 to (1 lsl n) - 1 do
        let bit k = (v lsr k) land 1 = 1 in
        let level = Array.init n (fun net -> bit (n - 1 - net)) in
        Alcotest.(check bool)
          (Printf.sprintf "%s on %d" (G.name kind) v)
          (G.logic kind (Array.init n (fun k -> S.of_bool (bit k))) = S.L1)
          (G.eval_levels kind level pins)
      done)
    kinds;
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Gate.eval_levels inv: arity mismatch") (fun () ->
      ignore (G.eval_levels G.Inv [| true; false |] [| 0; 1 |]))

let test_gate_drive () =
  let inv = G.drive tech ~strength:1.0 G.Inv in
  let nand3 = G.drive tech ~strength:1.0 (G.Nand 3) in
  Alcotest.(check (float 1e-9)) "inv pulldown = unit"
    tech.Device.Tech.wl_n_unit inv.G.wl_pull_down;
  Alcotest.(check (float 1e-9)) "stacked nand keeps equivalent strength"
    inv.G.wl_pull_down nand3.G.wl_pull_down;
  Alcotest.(check bool) "stacking costs input cap" true
    (nand3.G.cin > inv.G.cin);
  let strong = G.drive tech ~strength:4.0 G.Inv in
  Alcotest.(check (float 1e-9)) "strength scales pulldown"
    (4.0 *. inv.G.wl_pull_down) strong.G.wl_pull_down;
  Alcotest.(check int) "mirror carry 10T" 10 (G.transistor_count G.Carry_inv);
  Alcotest.(check int) "mirror sum 14T" 14 (G.transistor_count G.Sum_inv)

let simple_circuit () =
  let b = C.builder tech in
  let a = C.add_input ~name:"a" b in
  let n1 = C.add_gate ~name:"n1" b G.Inv [ a ] in
  let n2 = C.add_gate ~name:"n2" b (G.Nand 2) [ a; n1 ] in
  C.add_load b n2 10e-15;
  C.mark_output ~name:"out" b n2;
  (C.freeze b, a, n1, n2)

let test_circuit_builder () =
  let c, a, n1, n2 = simple_circuit () in
  Alcotest.(check int) "nets" 3 (C.num_nets c);
  Alcotest.(check int) "gates" 2 (C.num_gates c);
  Alcotest.(check int) "inputs" 1 (Array.length (C.inputs c));
  Alcotest.(check int) "outputs" 1 (Array.length (C.outputs c));
  Alcotest.(check int) "fanout of a" 2 (List.length (C.fanout c a));
  Alcotest.(check int) "fanout of n1" 1 (List.length (C.fanout c n1));
  Alcotest.(check bool) "driver of n2 exists" true
    (C.gate_of_output c n2 <> None);
  Alcotest.(check bool) "input has no driver" true
    (C.gate_of_output c a = None);
  Alcotest.(check int) "find by name" n2 (C.find_net c "out");
  Alcotest.(check string) "net name" "n1" (C.net_name c n1);
  Alcotest.(check bool) "load includes explicit cap" true
    (C.load_capacitance c n2 >= 10e-15);
  Alcotest.(check bool) "internal net loaded by pin caps" true
    (C.load_capacitance c n1 > 0.0);
  Alcotest.(check int) "transistors" (2 + 4) (C.transistor_count c);
  Alcotest.(check bool) "total pulldown wl" true
    (C.total_pulldown_wl c > 0.0)

let test_circuit_errors () =
  let b = C.builder tech in
  let a = C.add_input b in
  Alcotest.check_raises "arity"
    (Invalid_argument "Circuit.add_gate nand2: expected 2 inputs, got 1")
    (fun () -> ignore (C.add_gate b (G.Nand 2) [ a ]));
  Alcotest.check_raises "unknown net"
    (Invalid_argument "Circuit.add_gate: unknown input net") (fun () ->
      ignore (C.add_gate b G.Inv [ 99 ]));
  Alcotest.check_raises "negative load"
    (Invalid_argument "Circuit.add_load: negative capacitance") (fun () ->
      C.add_load b a (-1.0));
  let b2 = C.builder tech in
  ignore (C.add_input ~name:"x" b2);
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Circuit: duplicate net name \"x\"") (fun () ->
      ignore (C.add_input ~name:"x" b2))

let test_ties () =
  let b = C.builder tech in
  let a = C.add_input b in
  let hi = C.add_tie b true in
  let out = C.add_gate b (G.Nand 2) [ a; hi ] in
  C.mark_output b out;
  let c = C.freeze b in
  Alcotest.(check int) "tie not an input" 1 (Array.length (C.inputs c));
  Alcotest.(check int) "one tie" 1 (Array.length (C.ties c));
  let st = Netlist.Logic_sim.eval c [| S.L1 |] in
  Alcotest.(check char) "nand with tie-high acts as inv" '0'
    (S.to_char st.(out))

let test_transistor_builder () =
  let b = Netlist.Transistor.builder () in
  let n1 = Netlist.Transistor.node ~name:"x" b in
  Netlist.Transistor.add b
    (Netlist.Transistor.Res { pos = n1; neg = Netlist.Transistor.ground; r = 100.0 });
  Netlist.Transistor.add b
    (Netlist.Transistor.Cap { pos = n1; neg = Netlist.Transistor.ground; c = 1e-15 });
  let t = Netlist.Transistor.freeze b in
  Alcotest.(check int) "nodes" 2 (Netlist.Transistor.num_nodes t);
  Alcotest.(check int) "res count" 1 (Netlist.Transistor.count t `Res);
  Alcotest.(check int) "cap count" 1 (Netlist.Transistor.count t `Cap);
  Alcotest.(check int) "find node" n1 (Netlist.Transistor.find_node t "x");
  Alcotest.(check string) "ground name" "gnd"
    (Netlist.Transistor.node_name t 0);
  let b2 = Netlist.Transistor.builder () in
  Alcotest.check_raises "bad cap"
    (Invalid_argument "Transistor.add: c <= 0") (fun () ->
      Netlist.Transistor.add b2
        (Netlist.Transistor.Cap { pos = 0; neg = 0; c = 0.0 }))

let expand_tree config =
  let tree = Fixtures.tree ~stages:2 ~fanout:3 () in
  let c = tree.Circuits.Inverter_tree.circuit in
  let stim = Phys.Pwl.constant 0.0 in
  Netlist.Expand.expand ~config c
    ~stimuli:[ (tree.Circuits.Inverter_tree.input, stim) ]

let test_expand_cmos () =
  let inst = expand_tree Netlist.Expand.default in
  let t = inst.Netlist.Expand.netlist in
  (* 4 inverters: 8 mosfets, no sleep device *)
  Alcotest.(check int) "mos count" 8 (Netlist.Transistor.count t `Mos);
  Alcotest.(check bool) "no virtual ground" true
    (inst.Netlist.Expand.vground = None)

let test_expand_mtcmos () =
  let inst = expand_tree (Netlist.Expand.mtcmos ~wl:10.0) in
  let t = inst.Netlist.Expand.netlist in
  Alcotest.(check int) "mos count includes sleep" 9
    (Netlist.Transistor.count t `Mos);
  Alcotest.(check bool) "virtual ground present" true
    (inst.Netlist.Expand.vground <> None);
  (* sources: vdd, sleep gate, one input *)
  Alcotest.(check int) "source count" 3 (Netlist.Transistor.count t `Vsrc)

let test_expand_resistor_model () =
  let cfg =
    { Netlist.Expand.default with Netlist.Expand.resistor_model = Some 500.0 }
  in
  let inst = expand_tree cfg in
  let t = inst.Netlist.Expand.netlist in
  Alcotest.(check int) "resistor inserted" 1 (Netlist.Transistor.count t `Res);
  Alcotest.(check bool) "virtual ground present" true
    (inst.Netlist.Expand.vground <> None)

let test_expand_mirror_adder () =
  (* one mirror FA cell must expand to exactly 28 transistors *)
  let b = C.builder tech in
  let a = C.add_input b in
  let x = C.add_input b in
  let cin = C.add_input b in
  let cell = Circuits.Mirror_adder.add_cell b ~a ~b:x ~cin in
  C.mark_output b cell.Circuits.Mirror_adder.sum;
  C.mark_output b cell.Circuits.Mirror_adder.cout;
  let c = C.freeze b in
  Alcotest.(check int) "28T mirror adder" 28 (C.transistor_count c);
  let stim = Phys.Pwl.constant 0.0 in
  let inst =
    Netlist.Expand.expand c
      ~stimuli:[ (a, stim); (x, stim); (cin, stim) ]
  in
  Alcotest.(check int) "expanded device count" 28
    (Netlist.Transistor.count inst.Netlist.Expand.netlist `Mos)

let test_expand_missing_stimulus () =
  let tree = Fixtures.tree ~stages:2 ~fanout:2 () in
  Alcotest.check_raises "missing stimulus"
    (Invalid_argument "Expand: primary input in has no stimulus") (fun () ->
      ignore
        (Netlist.Expand.expand tree.Circuits.Inverter_tree.circuit
           ~stimuli:[]))

let test_depth_and_dot () =
  let tree = Fixtures.tree ~stages:3 ~fanout:2 () in
  let c = tree.Circuits.Inverter_tree.circuit in
  Alcotest.(check int) "tree depth" 3 (C.logic_depth c);
  let dot = C.to_dot c in
  Alcotest.(check bool) "dot header" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "dot mentions gates" true
    (String.length dot > 0
     && List.exists
          (fun line ->
            String.length line > 0
            && String.length line >= 5
            &&
            let rec has i =
              i + 3 <= String.length line
              && (String.sub line i 3 = "inv" || has (i + 1))
            in
            has 0)
          (String.split_on_char '\n' dot))

let prop_expand_matches_transistor_count =
  QCheck.Test.make ~count:30
    ~name:"expand: device count equals the gate-level census"
    QCheck.(int_bound 500)
    (fun seed ->
      let r = Circuits.Random_logic.make ~seed tech ~inputs:4 ~gates:12 in
      let c = r.Circuits.Random_logic.circuit in
      let stim = Phys.Pwl.constant 0.0 in
      let stimuli =
        Array.to_list
          (Array.map (fun n -> (n, stim)) (Netlist.Circuit.inputs c))
      in
      let inst = Netlist.Expand.expand c ~stimuli in
      Netlist.Transistor.count inst.Netlist.Expand.netlist `Mos
      = Netlist.Circuit.transistor_count c)

let prop_signal_int_roundtrip =
  QCheck.Test.make ~count:200 ~name:"signal: bits_of_int roundtrips"
    QCheck.(pair (int_range 1 20) (int_bound 1_000_000))
    (fun (width, v) ->
      let v = v land ((1 lsl width) - 1) in
      S.int_of_bits (S.bits_of_int ~width v) = Some v)

let prop_gate_logic_total =
  let kinds =
    [ G.Inv; G.Buf; G.Nand 2; G.Nand 4; G.Nor 3; G.And 2; G.Or 3; G.Xor2;
      G.Xnor2; G.Aoi21; G.Oai21; G.Carry_inv; G.Sum_inv ]
  in
  QCheck.Test.make ~count:300
    ~name:"gate: logic total on binary inputs and never X"
    QCheck.(pair (int_bound (List.length kinds - 1)) (int_bound 255))
    (fun (ki, v) ->
      let kind = List.nth kinds ki in
      let n = G.arity kind in
      let pins =
        Array.init n (fun i -> S.of_bool ((v lsr i) land 1 = 1))
      in
      match G.logic kind pins with S.L0 | S.L1 -> true | S.X -> false)

let suite =
  [ Alcotest.test_case "signal ops" `Quick test_signal_ops;
    Alcotest.test_case "signal ints" `Quick test_signal_ints;
    Alcotest.test_case "gate logic" `Quick test_gate_logic;
    Alcotest.test_case "aoi/oai gates" `Quick test_aoi_oai_logic;
    Alcotest.test_case "gate eval_levels = logic" `Quick
      test_gate_eval_levels;
    Alcotest.test_case "gate drive" `Quick test_gate_drive;
    Alcotest.test_case "circuit builder" `Quick test_circuit_builder;
    Alcotest.test_case "circuit errors" `Quick test_circuit_errors;
    Alcotest.test_case "ties" `Quick test_ties;
    Alcotest.test_case "transistor builder" `Quick test_transistor_builder;
    Alcotest.test_case "expand cmos" `Quick test_expand_cmos;
    Alcotest.test_case "expand mtcmos" `Quick test_expand_mtcmos;
    Alcotest.test_case "expand resistor model" `Quick test_expand_resistor_model;
    Alcotest.test_case "expand mirror adder" `Quick test_expand_mirror_adder;
    Alcotest.test_case "expand missing stimulus" `Quick
      test_expand_missing_stimulus;
    Alcotest.test_case "depth and dot export" `Quick test_depth_and_dot;
    Prop.to_alcotest prop_expand_matches_transistor_count;
    Prop.to_alcotest prop_signal_int_roundtrip;
    Prop.to_alcotest prop_gate_logic_total ]
