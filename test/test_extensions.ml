(* Tests for the extension modules: STA baseline, energy accounting,
   wake-up analysis, hierarchical sleep devices, characterisation, the
   netlist language, deck export, and the extra circuit generators. *)

module BP = Mtcmos.Breakpoint_sim
module S = Netlist.Signal

let tech = Fixtures.tech

(* ---- STA ---------------------------------------------------------------- *)

let test_sta_chain () =
  let ch = Fixtures.chain 5 in
  let c = ch.Circuits.Chain.circuit in
  let t = Mtcmos.Sta.analyze c in
  let path = Mtcmos.Sta.critical_path t in
  Alcotest.(check int) "path length" 5
    (List.length path.Mtcmos.Sta.through);
  (* arrival = sum of gate delays along the chain *)
  let sum =
    List.fold_left
      (fun acc gid -> acc +. Mtcmos.Sta.gate_delay t gid)
      0.0 path.Mtcmos.Sta.through
  in
  Alcotest.(check (float 1e-15)) "arrival = sum of stage delays" sum
    path.Mtcmos.Sta.arrival;
  Alcotest.(check (float 1e-18)) "inputs arrive at 0" 0.0
    (Mtcmos.Sta.arrival t ch.Circuits.Chain.input)

let test_sta_adder_monotone () =
  let add = Fixtures.adder 3 in
  let t = Mtcmos.Sta.analyze add.Circuits.Ripple_adder.circuit in
  (* higher sum bits arrive later along the carry chain *)
  let a0 = Mtcmos.Sta.arrival t add.Circuits.Ripple_adder.sums.(0) in
  let a2 = Mtcmos.Sta.arrival t add.Circuits.Ripple_adder.sums.(2) in
  Alcotest.(check bool) "s2 after s0" true (a2 > a0);
  let p = Mtcmos.Sta.critical_path t in
  Alcotest.(check bool) "critical path nonempty" true
    (p.Mtcmos.Sta.through <> [])

let test_sta_underestimates_mtcmos () =
  (* the paper's point: static analysis misses the virtual-ground
     slowdown entirely *)
  let tree = Fixtures.tree ~stages:3 ~fanout:3 () in
  let c = tree.Circuits.Inverter_tree.circuit in
  let t = Mtcmos.Sta.analyze c in
  let sleep = BP.Sleep_fet (Device.Sleep.nmos_footer tech ~wl:8.0) in
  let under =
    Mtcmos.Sta.mtcmos_underestimate t c ~sleep
      ~vectors:[ ([ (1, 0) ], [ (1, 1) ]) ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "underestimate %.0f%% > 50%%" (100.0 *. under))
    true (under > 0.5)

(* ---- energy -------------------------------------------------------------- *)

let adder = Fixtures.adder 3
let adder_c = adder.Circuits.Ripple_adder.circuit

let test_energy_switching () =
  let e =
    Mtcmos.Energy.switching_energy_of_transition adder_c
      ~before:[ (3, 0); (3, 0) ] ~after:[ (3, 7); (3, 7) ]
  in
  Alcotest.(check bool) "switching energy positive" true (e > 0.0);
  let e0 =
    Mtcmos.Energy.switching_energy_of_transition adder_c
      ~before:[ (3, 3); (3, 4) ] ~after:[ (3, 3); (3, 4) ]
  in
  Alcotest.(check (float 1e-20)) "idle transition free" 0.0 e0;
  (* reverse transition has different rising set, both bounded by total *)
  let e_rev =
    Mtcmos.Energy.switching_energy_of_transition adder_c
      ~before:[ (3, 7); (3, 7) ] ~after:[ (3, 0); (3, 0) ]
  in
  Alcotest.(check bool) "reverse also positive" true (e_rev > 0.0)

let test_energy_glitch_aware () =
  (* a static-hazard circuit: the steady-state estimate misses the
     glitch energy, the waveform-based one catches it *)
  let b = Netlist.Circuit.builder tech in
  let a = Netlist.Circuit.add_input b in
  let x = Netlist.Circuit.add_input b in
  let na = Netlist.Circuit.add_gate b Netlist.Gate.Inv [ a ] in
  let o1 = Netlist.Circuit.add_gate b (Netlist.Gate.Nand 2) [ a; x ] in
  let o2 = Netlist.Circuit.add_gate b (Netlist.Gate.Nand 2) [ na; x ] in
  let out = Netlist.Circuit.add_gate b (Netlist.Gate.Nand 2) [ o1; o2 ] in
  Netlist.Circuit.add_load b out 20e-15;
  Netlist.Circuit.mark_output b out;
  let c = Netlist.Circuit.freeze b in
  let before = [ (1, 1); (1, 1) ] and after = [ (1, 0); (1, 1) ] in
  let static =
    Mtcmos.Energy.switching_energy_of_transition c ~before ~after
  in
  let r = BP.simulate_ints c ~before ~after in
  let dynamic = Mtcmos.Energy.switching_energy_of_result c r in
  Alcotest.(check bool) "dynamic >= static" true
    (dynamic >= static -. 1e-20);
  (* the output's steady state is 1 -> 1 but it glitches: the hazard
     shows up only in the waveform-based accounting *)
  Alcotest.(check bool)
    (Printf.sprintf "glitch energy visible (%.3g vs %.3g)" dynamic static)
    true
    (dynamic > static *. 1.2)

let test_energy_budget () =
  let b = Mtcmos.Energy.budget adder_c ~wl:10.0 in
  Alcotest.(check bool) "all terms positive" true
    (b.Mtcmos.Energy.switching_per_transition > 0.0
     && b.Mtcmos.Energy.sleep_toggle > 0.0
     && b.Mtcmos.Energy.rail_recharge > 0.0
     && b.Mtcmos.Energy.standby_power_saved > 0.0
     && b.Mtcmos.Energy.area > 0.0);
  (* overhead grows with the device, savings barely move *)
  let b2 = Mtcmos.Energy.budget adder_c ~wl:40.0 in
  Alcotest.(check bool) "toggle energy grows with wl" true
    (b2.Mtcmos.Energy.sleep_toggle > b.Mtcmos.Energy.sleep_toggle);
  let t1 = Mtcmos.Energy.break_even_idle_time adder_c ~wl:10.0 in
  let t2 = Mtcmos.Energy.break_even_idle_time adder_c ~wl:40.0 in
  Alcotest.(check bool) "break-even positive" true
    (t1 > 0.0 && Float.is_finite t1);
  Alcotest.(check bool) "bigger device, longer break-even" true (t2 > t1)

(* ---- wakeup --------------------------------------------------------------- *)

let test_wakeup_estimate () =
  let e10 = Mtcmos.Wakeup.estimate adder_c ~wl:10.0 in
  let e40 = Mtcmos.Wakeup.estimate adder_c ~wl:40.0 in
  (* the rail floats up to where the block's weak-inversion leakage
     balances the high-Vt device's: a few hundred mV for these cards *)
  Alcotest.(check bool)
    (Printf.sprintf "rail floats to %.2f V in sleep"
       e10.Mtcmos.Wakeup.v_float)
    true
    (e10.Mtcmos.Wakeup.v_float > 0.2);
  Alcotest.(check bool) "analytic wake positive" true
    (e10.Mtcmos.Wakeup.analytic > 0.0);
  Alcotest.(check bool) "bigger sleep device wakes faster" true
    (e40.Mtcmos.Wakeup.analytic < e10.Mtcmos.Wakeup.analytic)

let test_wakeup_simulated () =
  let ch = Fixtures.chain 3 in
  let c = ch.Circuits.Chain.circuit in
  let t_wake = Mtcmos.Wakeup.simulate c ~wl:10.0 in
  Alcotest.(check bool)
    (Printf.sprintf "wake in (1 ps, 10 ns): %s"
       (Phys.Units.to_eng_string ~unit:"s" t_wake))
    true
    (t_wake > 1e-12 && t_wake < 10e-9);
  (* on a tiny rail the wake time is dominated by the sleep gate's own
     ramp, so a bigger device is only guaranteed not to be slower *)
  let t_wake_big = Mtcmos.Wakeup.simulate c ~wl:50.0 in
  Alcotest.(check bool) "bigger device not slower (simulated)" true
    (t_wake_big <= t_wake *. 1.05)

(* ---- hierarchy -------------------------------------------------------------- *)

let tree = Fixtures.tree ~stages:3 ~fanout:3 ()
let tree_c = tree.Circuits.Inverter_tree.circuit
let tree_vec = ([ (1, 0) ], [ (1, 1) ])

let test_hierarchy_partition () =
  let block_of = Mtcmos.Hierarchy.by_level tree_c ~blocks:3 in
  (* 13 gates in 3 levels: each level its own block *)
  let counts = Array.make 3 0 in
  Array.iter
    (fun (g : Netlist.Circuit.gate_inst) ->
      let b = block_of.(g.Netlist.Circuit.id) in
      counts.(b) <- counts.(b) + 1)
    (Netlist.Circuit.gates tree_c);
  Alcotest.(check (array int)) "level bands" [| 1; 3; 9 |] counts

let test_hierarchy_isolated_rails () =
  (* per-block devices of the same size as one shared device: the
     tree's stages discharge in nearly disjoint time slots, so a shared
     device is already time-multiplexed and the partition neither helps
     nor hurts the delay — but each rail now only sees its own stage *)
  let blocks = 3 in
  let wl = 12.0 in
  let cfg_h = Mtcmos.Hierarchy.config tech tree_c ~wl_per_block:wl ~blocks in
  let r_h = BP.simulate_ints ~config:cfg_h tree_c ~before:(fst tree_vec)
      ~after:(snd tree_vec) in
  let shared = BP.mtcmos_config tech ~wl in
  let r_s = BP.simulate_ints ~config:shared tree_c ~before:(fst tree_vec)
      ~after:(snd tree_vec) in
  let d_h = match BP.critical_delay r_h with Some (_, d) -> d | None -> nan in
  let d_s = match BP.critical_delay r_s with Some (_, d) -> d | None -> nan in
  Alcotest.(check bool)
    (Printf.sprintf "same-size blocks match shared: %.3g vs %.3g" d_h d_s)
    true
    (Float.abs (d_h -. d_s) /. d_s < 0.1);
  (* per-block rails observable and ordered by burst size *)
  let _, peak0 = Phys.Pwl.extrema (BP.vground_waveform_block r_h 0) in
  let _, peak1 = Phys.Pwl.extrema (BP.vground_waveform_block r_h 1) in
  let _, peak2 = Phys.Pwl.extrema (BP.vground_waveform_block r_h 2) in
  Alcotest.(check bool) "stage-3 rail bounces hardest" true
    (peak2 > peak0);
  (* stage 2 only charges (no discharge through its rail) on this edge *)
  Alcotest.(check (float 1e-9)) "rising-only stage keeps a quiet rail" 0.0
    peak1

let test_hierarchy_sizing_cost () =
  (* because the bursts are time-disjoint, each private device must be
     nearly as big as the shared one: naive per-stage partitioning
     multiplies total sleep width — the flip side of the follow-up
     paper's mutual-exclusion argument *)
  let wl_shared =
    Mtcmos.Sizing.size_for_degradation tree_c ~vectors:[ tree_vec ]
      ~target:0.10
  in
  let wl_block =
    Mtcmos.Hierarchy.size_uniform_for_degradation tree_c
      ~vectors:[ tree_vec ] ~target:0.10 ~blocks:3
  in
  Alcotest.(check bool)
    (Printf.sprintf "per-block %.1f comparable to shared %.1f" wl_block
       wl_shared)
    true
    (wl_block > 0.5 *. wl_shared && wl_block < 1.5 *. wl_shared);
  Alcotest.(check bool) "total width inflates" true
    (3.0 *. wl_block > 1.5 *. wl_shared)

(* ---- characterisation --------------------------------------------------------- *)

let test_characterize_inverter () =
  let pts =
    Mtcmos.Characterize.gate ~loads:[ 20e-15; 60e-15 ] ~ramps:[ 30e-12 ]
      tech Netlist.Gate.Inv
  in
  Alcotest.(check int) "two points" 2 (List.length pts);
  List.iter
    (fun p ->
      Alcotest.(check bool) "delays measured" true
        (Float.is_finite p.Mtcmos.Characterize.fall_delay
         && Float.is_finite p.Mtcmos.Characterize.rise_delay
         && p.Mtcmos.Characterize.fall_delay > 0.0
         && p.Mtcmos.Characterize.rise_delay > 0.0))
    pts;
  (match pts with
   | [ a; b ] ->
     Alcotest.(check bool) "delay grows with load" true
       (b.Mtcmos.Characterize.fall_delay > a.Mtcmos.Characterize.fall_delay)
   | _ -> Alcotest.fail "expected two points")

let test_characterize_mirror_stages () =
  (* the fixtures must actually transition for the mirror-adder stages *)
  List.iter
    (fun kind ->
      let pts =
        Mtcmos.Characterize.gate ~loads:[ 30e-15 ] ~ramps:[ 30e-12 ] tech
          kind
      in
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Netlist.Gate.name kind ^ " fall measured")
            true
            (Float.is_finite p.Mtcmos.Characterize.fall_delay))
        pts)
    [ Netlist.Gate.Carry_inv; Netlist.Gate.Sum_inv; Netlist.Gate.Xor2;
      Netlist.Gate.Nor 2 ]

let test_calibration_factor () =
  let f = Mtcmos.Characterize.calibration_factor ~loads:[ 50e-15 ] tech in
  Alcotest.(check bool)
    (Printf.sprintf "calibration factor %.2f in [0.5, 3]" f)
    true
    (f > 0.5 && f < 3.0)

(* ---- netlist language ----------------------------------------------------------- *)

let sample_netlist =
  {|# a tiny mux-ish block
input a b sel
gate inv nsel sel
gate nand2 t1 a sel
gate nand2 t2 b nsel
gate nand2 out t1 t2
load out 25f
output out
|}

let test_parse_roundtrip () =
  let c = Netlist.Parse.circuit_of_string tech sample_netlist in
  Alcotest.(check int) "inputs" 3 (Array.length (Netlist.Circuit.inputs c));
  Alcotest.(check int) "gates" 4 (Netlist.Circuit.num_gates c);
  let out = Netlist.Circuit.find_net c "out" in
  Alcotest.(check bool) "load applied" true
    (Netlist.Circuit.load_capacitance c out >= 25e-15);
  (* behaves as a mux: sel=1 -> a, sel=0 -> b *)
  let eval a b sel =
    let st =
      Netlist.Logic_sim.eval c
        [| S.of_bool a; S.of_bool b; S.of_bool sel |]
    in
    st.(out)
  in
  Alcotest.(check char) "mux sel=1 picks a" '1' (S.to_char (eval true false true));
  Alcotest.(check char) "mux sel=0 picks b" '0' (S.to_char (eval true false false))

let test_parse_errors () =
  let expect_error text =
    match Netlist.Parse.circuit_of_string tech text with
    | exception Netlist.Parse.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected Parse_error"
  in
  expect_error "gate inv out a\noutput out\n";          (* unknown net *)
  expect_error "input a\ngate frob out a\noutput out\n"; (* unknown kind *)
  expect_error "input a\ngate nand2 out a\noutput out\n"; (* arity *)
  expect_error "input a\ngate inv out a\n";               (* no outputs *)
  expect_error "input a\ninput a\ngate inv o a\noutput o\n"; (* dup *)
  Alcotest.(check bool) "kind_of_string nand3" true
    (Netlist.Parse.kind_of_string "nand3" = Some (Netlist.Gate.Nand 3));
  Alcotest.(check bool) "kind_of_string junk" true
    (Netlist.Parse.kind_of_string "nand" = None)

let test_parse_ties_and_strength () =
  let text =
    "input a\ntie1 one\nstrength 2.5\ngate nand2 o a one\noutput o\n"
  in
  let c = Netlist.Parse.circuit_of_string tech text in
  let g = (Netlist.Circuit.gates c).(0) in
  Alcotest.(check (float 1e-9)) "strength carried" 2.5
    g.Netlist.Circuit.strength;
  Alcotest.(check int) "tie present" 1
    (Array.length (Netlist.Circuit.ties c))

(* ---- deck export -------------------------------------------------------------- *)

let test_deck_export () =
  let ch = Fixtures.chain 2 in
  let c = ch.Circuits.Chain.circuit in
  let inst =
    Netlist.Expand.expand ~config:(Netlist.Expand.mtcmos ~wl:5.0) c
      ~stimuli:
        [ (ch.Circuits.Chain.input,
           Phys.Pwl.create [ (0.0, 0.0); (1e-10, 1.2) ]) ]
  in
  let deck =
    Spice.Deck.to_deck ~t_stop:2e-9 inst.Netlist.Expand.netlist
  in
  let count_prefix p =
    String.split_on_char '\n' deck
    |> List.filter (fun l ->
           String.length l > 0 && String.length p <= String.length l
           && String.sub l 0 (String.length p) = p)
    |> List.length
  in
  (* 2 inverters + sleep = 5 devices *)
  Alcotest.(check int) "mosfets" 5 (count_prefix "M");
  Alcotest.(check bool) "has nmos and pmos models" true
    (count_prefix ".MODEL" >= 2);
  Alcotest.(check int) "tran card" 1 (count_prefix ".TRAN");
  Alcotest.(check int) "end card" 1 (count_prefix ".END");
  Alcotest.(check bool) "pwl source present" true
    (count_prefix "V" >= 2)

(* ---- PMOS header (virtual Vdd) ---------------------------------------------- *)

let test_pmos_header_switch_level () =
  (* on a falling input the tree's stages 1 and 3 RISE: those edges are
     the gated ones under a PMOS header *)
  let run cfg before after =
    let r = BP.simulate_ints ~config:cfg tree_c ~before ~after in
    ((match BP.critical_delay r with Some (_, d) -> d | None -> nan),
     BP.vx_peak r)
  in
  let d_n, vx_n = run (BP.mtcmos_config tech ~wl:20.0) [ (1, 0) ] [ (1, 1) ] in
  let d_p, vx_p =
    run (BP.mtcmos_pmos_config tech ~wl:20.0) [ (1, 1) ] [ (1, 0) ]
  in
  Alcotest.(check bool) "both rails bounce" true (vx_n > 0.05 && vx_p > 0.05);
  (* the paper: NMOS has lower on-resistance, so at equal size the PMOS
     header is slower *)
  Alcotest.(check bool)
    (Printf.sprintf "pmos %.3g slower than nmos %.3g" d_p d_n)
    true (d_p > d_n);
  (* the ungated direction is unaffected: rising-input transition under
     a PMOS header matches plain CMOS when nothing rises... use the
     falling-edge-only first stage: 0->1 input makes stage 1 FALL, which
     the header does not gate; compare stage-1 delay *)
  let stage1 = tree.Circuits.Inverter_tree.stage_nets.(0).(0) in
  let r_p =
    BP.simulate_ints
      ~config:(BP.mtcmos_pmos_config tech ~wl:20.0)
      tree_c ~before:[ (1, 0) ] ~after:[ (1, 1) ]
  in
  let r_c = BP.simulate_ints tree_c ~before:[ (1, 0) ] ~after:[ (1, 1) ] in
  (match (BP.net_delay r_p stage1, BP.net_delay r_c stage1) with
   | Some dp, Some dc ->
     Alcotest.(check (float (dc *. 0.01)))
       "falling edges unaffected by a header" dc dp
   | _ -> Alcotest.fail "stage-1 did not switch")

let test_pmos_header_transistor_level () =
  let sleep =
    BP.Sleep_fet
      (Device.Sleep.of_pmos tech.Device.Tech.sleep_pmos ~wl:20.0 ~vdd:1.2)
  in
  let cfg =
    { Mtcmos.Spice_ref.default_config with
      Mtcmos.Spice_ref.sleep; pmos_header = true; t_stop = 10e-9 }
  in
  let r =
    Mtcmos.Spice_ref.run_ints ~config:cfg tree_c ~before:[ (1, 1) ]
      ~after:[ (1, 0) ]
  in
  (match Mtcmos.Spice_ref.critical_delay r with
   | Some (_, d) ->
     Alcotest.(check bool) "delay measured" true (d > 0.0)
   | None -> Alcotest.fail "no transition");
  let droop = Mtcmos.Spice_ref.vx_peak r in
  Alcotest.(check bool)
    (Printf.sprintf "virtual vdd droops %.0f mV" (droop *. 1e3))
    true
    (droop > 0.1 && droop < 1.2);
  (* switch-level agrees on the droop within 35% *)
  let bp =
    BP.simulate_ints
      ~config:(BP.mtcmos_pmos_config tech ~wl:20.0)
      tree_c ~before:[ (1, 1) ] ~after:[ (1, 0) ]
  in
  let ratio = BP.vx_peak bp /. droop in
  Alcotest.(check bool)
    (Printf.sprintf "droop agreement (ratio %.2f)" ratio)
    true
    (ratio > 0.65 && ratio < 1.35)

let test_pmos_sleep_device_guard () =
  Alcotest.check_raises "nmos card rejected"
    (Invalid_argument "Sleep.of_pmos: card is not PMOS") (fun () ->
      ignore
        (Device.Sleep.of_pmos tech.Device.Tech.sleep_nmos ~wl:5.0 ~vdd:1.2))

let suite =
  [ Alcotest.test_case "sta chain" `Quick test_sta_chain;
    Alcotest.test_case "sta adder monotone" `Quick test_sta_adder_monotone;
    Alcotest.test_case "sta underestimates mtcmos" `Quick
      test_sta_underestimates_mtcmos;
    Alcotest.test_case "energy switching" `Quick test_energy_switching;
    Alcotest.test_case "energy glitch-aware" `Quick
      test_energy_glitch_aware;
    Alcotest.test_case "energy budget" `Quick test_energy_budget;
    Alcotest.test_case "wakeup estimate" `Quick test_wakeup_estimate;
    Alcotest.test_case "wakeup simulated" `Slow test_wakeup_simulated;
    Alcotest.test_case "hierarchy partition" `Quick test_hierarchy_partition;
    Alcotest.test_case "hierarchy isolated rails" `Quick
      test_hierarchy_isolated_rails;
    Alcotest.test_case "hierarchy sizing cost" `Quick
      test_hierarchy_sizing_cost;
    Alcotest.test_case "characterize inverter" `Slow
      test_characterize_inverter;
    Alcotest.test_case "characterize mirror stages" `Slow
      test_characterize_mirror_stages;
    Alcotest.test_case "calibration factor" `Slow test_calibration_factor;
    Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse ties and strength" `Quick
      test_parse_ties_and_strength;
    Alcotest.test_case "deck export" `Quick test_deck_export;
    Alcotest.test_case "pmos header switch-level" `Quick
      test_pmos_header_switch_level;
    Alcotest.test_case "pmos header transistor-level" `Slow
      test_pmos_header_transistor_level;
    Alcotest.test_case "pmos sleep guard" `Quick
      test_pmos_sleep_device_guard ]
