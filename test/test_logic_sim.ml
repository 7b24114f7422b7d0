(* Logic simulator and circuit-generator functional correctness. *)

module S = Netlist.Signal
module L = Netlist.Logic_sim

let tech = Fixtures.tech

(* golden model: [(a + b) mod 2^(bits+1)], the carry-out as the top bit *)
let reference_sum ~bits a b = (a + b) land ((1 lsl (bits + 1)) - 1)

let test_adder_exhaustive () =
  let add = Fixtures.adder 3 in
  let c = add.Circuits.Ripple_adder.circuit in
  for a = 0 to 7 do
    for b = 0 to 7 do
      let st = L.eval_ints c [ (3, a); (3, b) ] in
      Alcotest.(check (option int))
        (Printf.sprintf "%d + %d" a b)
        (Some (reference_sum ~bits:3 a b))
        (L.output_int c st)
    done
  done

let test_multiplier_exhaustive_4bit () =
  let m = Fixtures.mult 4 in
  let c = m.Circuits.Csa_multiplier.circuit in
  for x = 0 to 15 do
    for y = 0 to 15 do
      let st = L.eval_ints c [ (4, x); (4, y) ] in
      Alcotest.(check (option int))
        (Printf.sprintf "%d * %d" x y)
        (Some (x * y))
        (L.output_int c st)
    done
  done

let test_multiplier_8bit_spot () =
  let m = Fixtures.mult 8 in
  let c = m.Circuits.Csa_multiplier.circuit in
  List.iter
    (fun (x, y) ->
      let st = L.eval_ints c [ (8, x); (8, y) ] in
      Alcotest.(check (option int))
        (Printf.sprintf "%d * %d" x y)
        (Some (x * y))
        (L.output_int c st))
    [ (0, 0); (255, 255); (255, 129); (127, 129); (1, 255); (200, 3) ]

let test_inverter_tree_eval () =
  let tree = Fixtures.tree ~stages:3 ~fanout:3 () in
  let c = tree.Circuits.Inverter_tree.circuit in
  let st0 = L.eval c [| S.L0 |] in
  let st1 = L.eval c [| S.L1 |] in
  (* 3 inversions: leaf = not input *)
  Array.iter
    (fun n ->
      Alcotest.(check char) "leaf vs input 0" '1' (S.to_char st0.(n));
      Alcotest.(check char) "leaf vs input 1" '0' (S.to_char st1.(n)))
    (Netlist.Circuit.outputs c);
  (* all 13 gates flip on an input flip *)
  Alcotest.(check int) "all gates switch" 13 (L.activity c st0 st1);
  (* on a rising input, stages 1 and 3 discharge: 1 + 9 gates *)
  Alcotest.(check int) "falling set" 10
    (List.length (L.falling_gates c st0 st1))

let test_x_propagation () =
  let b = Netlist.Circuit.builder tech in
  let a = Netlist.Circuit.add_input b in
  let x = Netlist.Circuit.add_input b in
  let out = Netlist.Circuit.add_gate b (Netlist.Gate.Nand 2) [ a; x ] in
  Netlist.Circuit.mark_output b out;
  let c = Netlist.Circuit.freeze b in
  let st = L.eval c [| S.L0; S.X |] in
  Alcotest.(check char) "0 nand x = 1" '1' (S.to_char st.(out));
  let st = L.eval c [| S.L1; S.X |] in
  Alcotest.(check char) "1 nand x = x" 'x' (S.to_char st.(out));
  Alcotest.(check (option int)) "output_int poisoned" None (L.output_int c st)

let test_eval_ints_errors () =
  let add = Fixtures.adder 2 in
  let c = add.Circuits.Ripple_adder.circuit in
  (* the coverage message must name the widths and the input count *)
  Alcotest.check_raises "width mismatch"
    (Invalid_argument
       "Circuit.pack_ints: widths [2] cover 2 bit(s) but the circuit \
        has 4 primary inputs")
    (fun () -> ignore (L.eval_ints c [ (2, 1) ]));
  (* and a non-fitting value must name the offending group, not just
     fail deep inside Signal.bits_of_int *)
  Alcotest.check_raises "value does not fit its group"
    (Invalid_argument
       "Circuit.pack_ints: group 1 (width 2) cannot hold value 9")
    (fun () -> ignore (L.eval_ints c [ (2, 3); (2, 9) ]));
  Alcotest.check_raises "negative value names its group"
    (Invalid_argument
       "Circuit.pack_ints: group 0 (width 2) cannot hold value -1")
    (fun () -> ignore (L.eval_ints c [ (2, -1); (2, 0) ]))

(* [Circuit.pack_ints] as it was first written, one list per group:
   the oracle for the list-free packer, its messages included *)
let pack_ints_lists c groups =
  let n_inputs = Array.length (Netlist.Circuit.inputs c) in
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 groups in
  if total <> n_inputs then
    invalid_arg
      (Printf.sprintf
         "Circuit.pack_ints: widths [%s] cover %d bit(s) but the circuit \
          has %d primary inputs"
         (String.concat "; " (List.map (fun (w, _) -> string_of_int w) groups))
         total n_inputs);
  groups
  |> List.mapi (fun i (w, v) ->
         if w < 0 || v < 0 || (w < Sys.int_size - 1 && v lsr max w 0 <> 0) then
           invalid_arg
             (Printf.sprintf
                "Circuit.pack_ints: group %d (width %d) cannot hold value %d" i
                w v);
         Array.to_list (S.bits_of_int ~width:w v))
  |> List.concat |> Array.of_list

(* random groups on a 4-input circuit: half of them split the inputs
   exactly, so packings, too-large and negative values and width
   mismatches all come up *)
let prop_pack_ints_matches_lists =
  let c = Fixtures.adder_circuit 2 in
  let gen =
    QCheck.Gen.(
      let value = oneof [ int_range (-3) 20; int_range 0 3 ] in
      bool >>= fun exact ->
      if exact then
        oneof
          [ return [ 4 ]; return [ 2; 2 ]; return [ 1; 3 ]; return [ 1; 1; 2 ];
            return [ 5; -1 ]; return [ 0; 4; 0 ] ]
        >>= fun widths ->
        flatten_l (List.map (fun w -> map (fun v -> (w, v)) value) widths)
      else list_size (int_range 0 4) (pair (int_range (-2) 6) value))
  in
  QCheck.Test.make ~count:500 ~name:"pack_ints = the list pipeline, errors too"
    (QCheck.make
       ~print:(fun gs ->
         String.concat "; "
           (List.map (fun (w, v) -> Printf.sprintf "(%d, %d)" w v) gs))
       gen)
    (fun groups ->
      let outcome f =
        match f c groups with
        | bits -> Ok (Array.map S.to_char bits)
        | exception Invalid_argument m -> Error m
      in
      outcome Netlist.Circuit.pack_ints = outcome pack_ints_lists)

let test_chain_fixtures () =
  let ch = Fixtures.chain 4 in
  let c = ch.Circuits.Chain.circuit in
  let st = L.eval c [| S.L0 |] in
  Alcotest.(check char) "even chain buffers" '0'
    (S.to_char st.(ch.Circuits.Chain.taps.(3)));
  Alcotest.(check char) "odd tap inverts" '1'
    (S.to_char st.(ch.Circuits.Chain.taps.(2)));
  let nc = Fixtures.nand_chain tech ~length:3 in
  let st = L.eval nc.Circuits.Chain.circuit [| S.L1 |] in
  Alcotest.(check char) "nand chain with tie behaves as inverters" '0'
    (S.to_char st.(nc.Circuits.Chain.taps.(2)));
  let par = Fixtures.parallel_inverters tech ~n:5 in
  let st = L.eval par.Circuits.Chain.circuit [| S.L1 |] in
  Array.iter
    (fun n -> Alcotest.(check char) "parallel inverter" '0'
        (S.to_char st.(n)))
    par.Circuits.Chain.taps

let test_kogge_stone_exhaustive () =
  let ks = Circuits.Kogge_stone.make tech ~bits:4 in
  let c = ks.Circuits.Kogge_stone.circuit in
  for a = 0 to 15 do
    for b = 0 to 15 do
      let st = L.eval_ints c [ (4, a); (4, b) ] in
      Alcotest.(check (option int))
        (Printf.sprintf "ks %d + %d" a b)
        (Some (a + b))
        (L.output_int c st)
    done
  done;
  (* depth is logarithmic: the 8-bit version must be much shallower than
     the ripple structure *)
  let ks8 = Circuits.Kogge_stone.make tech ~bits:8 in
  let rp8 = Fixtures.adder 8 in
  let d_ks =
    (Mtcmos.Sta.critical_path
       (Mtcmos.Sta.analyze ks8.Circuits.Kogge_stone.circuit))
      .Mtcmos.Sta.through
    |> List.length
  in
  let d_rp =
    (Mtcmos.Sta.critical_path
       (Mtcmos.Sta.analyze rp8.Circuits.Ripple_adder.circuit))
      .Mtcmos.Sta.through
    |> List.length
  in
  Alcotest.(check bool)
    (Printf.sprintf "prefix depth %d < ripple depth %d" d_ks d_rp)
    true (d_ks < d_rp)

let prop_kogge_stone_matches_reference =
  let ks = Circuits.Kogge_stone.make tech ~bits:7 in
  let c = ks.Circuits.Kogge_stone.circuit in
  QCheck.Test.make ~count:300 ~name:"7-bit kogge-stone matches integers"
    QCheck.(pair (int_bound 127) (int_bound 127))
    (fun (a, b) ->
      let st = L.eval_ints c [ (7, a); (7, b) ] in
      L.output_int c st = Some (a + b))

let prop_adder_matches_reference =
  let add = Fixtures.adder 6 in
  let c = add.Circuits.Ripple_adder.circuit in
  QCheck.Test.make ~count:300 ~name:"6-bit adder matches integers"
    QCheck.(pair (int_bound 63) (int_bound 63))
    (fun (a, b) ->
      let st = L.eval_ints c [ (6, a); (6, b) ] in
      L.output_int c st = Some (a + b))

let prop_multiplier_matches_reference =
  let m = Fixtures.mult 6 in
  let c = m.Circuits.Csa_multiplier.circuit in
  QCheck.Test.make ~count:300 ~name:"6-bit multiplier matches integers"
    QCheck.(pair (int_bound 63) (int_bound 63))
    (fun (x, y) ->
      let st = L.eval_ints c [ (6, x); (6, y) ] in
      L.output_int c st = Some (x * y))

let prop_activity_symmetric =
  let add = Fixtures.adder 3 in
  let c = add.Circuits.Ripple_adder.circuit in
  QCheck.Test.make ~count:200 ~name:"switching activity is symmetric"
    QCheck.(pair (int_bound 63) (int_bound 63))
    (fun (v1, v2) ->
      let s1 = L.eval_ints c [ (3, v1 land 7); (3, v1 lsr 3) ] in
      let s2 = L.eval_ints c [ (3, v2 land 7); (3, v2 lsr 3) ] in
      L.activity c s1 s2 = L.activity c s2 s1)

let suite =
  [ Alcotest.test_case "3-bit adder exhaustive" `Quick test_adder_exhaustive;
    Alcotest.test_case "4-bit multiplier exhaustive" `Quick
      test_multiplier_exhaustive_4bit;
    Alcotest.test_case "8-bit multiplier spot checks" `Quick
      test_multiplier_8bit_spot;
    Alcotest.test_case "inverter tree" `Quick test_inverter_tree_eval;
    Alcotest.test_case "x propagation" `Quick test_x_propagation;
    Alcotest.test_case "eval_ints errors" `Quick test_eval_ints_errors;
    Alcotest.test_case "chain fixtures" `Quick test_chain_fixtures;
    Alcotest.test_case "kogge-stone exhaustive + depth" `Quick
      test_kogge_stone_exhaustive;
    Prop.to_alcotest prop_kogge_stone_matches_reference;
    Prop.to_alcotest prop_adder_matches_reference;
    Prop.to_alcotest prop_multiplier_matches_reference;
    Prop.to_alcotest prop_activity_symmetric;
    Prop.to_alcotest prop_pack_ints_matches_lists ]
