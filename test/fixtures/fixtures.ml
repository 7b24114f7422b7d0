(* Shared circuit builders for the test suites.  Every suite used to
   re-declare its own technology card, inverter chains, ripple adders
   and the mirror-adder cell; they are defined once here so a fixture
   tweak (or a new benchmark) lands everywhere at once.

   Nothing here is random or stateful: fixtures are rebuilt on each
   call so a test that mutates nothing can still not alias another
   test's circuit. *)

let tech = Device.Tech.mtcmos_07um
let tech03 = Device.Tech.mtcmos_03um

let chain ?(tech = tech) ?cl n =
  Circuits.Chain.inverter_chain ?cl tech ~length:n

let chain_circuit ?tech ?cl n = (chain ?tech ?cl n).Circuits.Chain.circuit
let chain6 () = chain_circuit 6

module C = Netlist.Circuit

(* NAND2 gates with the second pin tied high: exercises the multi-input
   and tie machinery *)
let nand_chain ?(cl = 20e-15) tech ~length =
  if length < 1 then invalid_arg "Fixtures.nand_chain: length < 1";
  let b = C.builder tech in
  let input = C.add_input ~name:"in" b in
  let hi = C.add_tie ~name:"tie1" b true in
  let taps = Array.make length 0 in
  let last =
    List.fold_left
      (fun prev i ->
        let out =
          C.add_gate ~name:(Printf.sprintf "s%d" i) b (Netlist.Gate.Nand 2)
            [ prev; hi ]
        in
        taps.(i) <- out;
        out)
      input
      (List.init length (fun i -> i))
  in
  C.add_load b last cl;
  C.mark_output b last;
  { Circuits.Chain.circuit = C.freeze b; input; taps }

(* [n] inverters sharing one input: the N-simultaneous-discharge case of
   the section 5.1 delay model (Fig. 8) *)
let parallel_inverters ?(cl = 20e-15) tech ~n =
  if n < 1 then invalid_arg "Fixtures.parallel_inverters: n < 1";
  let b = C.builder tech in
  let input = C.add_input ~name:"in" b in
  let taps =
    Array.init n (fun i ->
        let out =
          C.add_gate ~name:(Printf.sprintf "o%d" i) b Netlist.Gate.Inv
            [ input ]
        in
        C.add_load b out cl;
        C.mark_output b out;
        out)
  in
  { Circuits.Chain.circuit = C.freeze b; input; taps }

let tree ?(tech = tech) ~stages ~fanout () =
  Circuits.Inverter_tree.make tech ~stages ~fanout

let tree_circuit ?tech ~stages ~fanout () =
  (tree ?tech ~stages ~fanout ()).Circuits.Inverter_tree.circuit

let adder ?(tech = tech) bits = Circuits.Ripple_adder.make tech ~bits
let adder_circuit ?tech bits = (adder ?tech bits).Circuits.Ripple_adder.circuit
let adder8 () = adder_circuit 8

let mult ?(tech = tech) bits = Circuits.Csa_multiplier.make tech ~bits
let mult_circuit ?tech bits = (mult ?tech bits).Circuits.Csa_multiplier.circuit

(* --- sized builders for the scale tier --------------------------------
   Parameterized generators for the event-driven-core suites: wide
   Kogge-Stone prefix adders, CSA multiplier arrays (via [mult] above)
   and seeded random-logic clouds.  Deterministic for a given size and
   seed, so differential results are reproducible across runs and
   worker counts. *)

let kogge ?(tech = tech) bits = Circuits.Kogge_stone.make tech ~bits

let kogge_circuit ?tech bits =
  (kogge ?tech bits).Circuits.Kogge_stone.circuit

let random_cloud ?(tech = tech) ?(seed = 7) ~inputs ~gates () =
  Circuits.Random_logic.make ~seed tech ~inputs ~gates

let random_circuit ?tech ?seed ~inputs ~gates () =
  (random_cloud ?tech ?seed ~inputs ~gates ()).Circuits.Random_logic.circuit

(* Size multiplier for the scale suites: tier-1 stays fast at the
   default 1; CI (or a curious dev) sets MTSIZE_TEST_SCALE=4/10 to run
   the same properties on 10k+-gate instances. *)
let test_scale () =
  match Sys.getenv_opt "MTSIZE_TEST_SCALE" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | _ -> 1)
  | None -> 1

let scaled n = n * test_scale ()

(* the 28-transistor mirror-adder cell as a 3-input / 2-output circuit *)
let mirror_cell () =
  let b = Netlist.Circuit.builder tech in
  let a = Netlist.Circuit.add_input ~name:"a" b in
  let bb = Netlist.Circuit.add_input ~name:"b" b in
  let cin = Netlist.Circuit.add_input ~name:"cin" b in
  let o = Circuits.Mirror_adder.add_cell b ~a ~b:bb ~cin in
  Netlist.Circuit.mark_output b o.Circuits.Mirror_adder.sum;
  Netlist.Circuit.mark_output b o.Circuits.Mirror_adder.cout;
  Netlist.Circuit.freeze b

(* single 1-bit input, low -> high *)
let bit_vec = ([ (1, 0) ], [ (1, 1) ])

(* everything low -> everything high for the given input packing *)
let low_high widths =
  ( List.map (fun w -> (w, 0)) widths,
    List.map (fun w -> (w, (1 lsl w) - 1)) widths )

(* Worker-domain count for suites that exercise parallel paths: the CI
   matrix sets MTSIZE_TEST_JOBS to re-run the whole suite at several
   values; everything is bit-identical across them by design. *)
let test_jobs () =
  match Sys.getenv_opt "MTSIZE_TEST_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | _ -> 1)
  | None -> 1

(* Unwrap a transistor-level analysis, failing the test with the
   rendered diagnosis. *)
let solved = function
  | Ok v -> v
  | Error f -> failwith (Spice.Diag.failure_to_string f)

(* [f 0 .. f (n-1)] through [Par.Pool] with no per-worker state. *)
let pool_map ?obs ?jobs ?chunk n f =
  Par.Pool.map_stateful ?obs ?jobs ?chunk ~create:ignore ~merge:ignore n
    (fun () i -> f i)
