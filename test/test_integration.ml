(* Cross-engine integration tests: the switch-level simulator against
   the transistor-level reference, mirroring the paper's §6 validation. *)

module BP = Mtcmos.Breakpoint_sim
module SR = Mtcmos.Spice_ref
module S = Netlist.Signal

let tech = Fixtures.tech

let sleep wl = BP.Sleep_fet (Device.Sleep.nmos_footer tech ~wl)

let test_chain_cmos_agreement () =
  (* both engines within 40 % on a plain CMOS chain *)
  let ch = Fixtures.chain ~cl:50e-15 3 in
  let c = ch.Circuits.Chain.circuit in
  let bp = BP.simulate c ~before:[| S.L0 |] ~after:[| S.L1 |] in
  let sp = SR.run c ~before:[| S.L0 |] ~after:[| S.L1 |] in
  let d_bp = match BP.critical_delay bp with Some (_, d) -> d | None -> 0.0 in
  let d_sp = match SR.critical_delay sp with Some (_, d) -> d | None -> 0.0 in
  Alcotest.(check bool) "both positive" true (d_bp > 0.0 && d_sp > 0.0);
  let ratio = d_bp /. d_sp in
  Alcotest.(check bool)
    (Printf.sprintf "within 40%% (ratio %.2f)" ratio)
    true
    (ratio > 0.6 && ratio < 1.4)

let test_tree_mtcmos_agreement () =
  let tree = Fixtures.tree ~stages:3 ~fanout:3 () in
  let c = tree.Circuits.Inverter_tree.circuit in
  let cfg_bp = { BP.default_config with BP.sleep = sleep 14.0 } in
  let cfg_sp = { SR.default_config with SR.sleep = sleep 14.0; t_stop = 8e-9 } in
  let bp = BP.simulate ~config:cfg_bp c ~before:[| S.L0 |] ~after:[| S.L1 |] in
  let sp = SR.run ~config:cfg_sp c ~before:[| S.L0 |] ~after:[| S.L1 |] in
  let d_bp = match BP.critical_delay bp with Some (_, d) -> d | None -> 0.0 in
  let d_sp = match SR.critical_delay sp with Some (_, d) -> d | None -> 0.0 in
  let ratio = d_bp /. d_sp in
  Alcotest.(check bool)
    (Printf.sprintf "delay within 40%% (ratio %.2f)" ratio)
    true
    (ratio > 0.6 && ratio < 1.4);
  (* ground bounce magnitude agrees to 35 % (Fig. 11's claim is shape) *)
  let vx_ratio = BP.vx_peak bp /. SR.vx_peak sp in
  Alcotest.(check bool)
    (Printf.sprintf "vx within 35%% (ratio %.2f)" vx_ratio)
    true
    (vx_ratio > 0.65 && vx_ratio < 1.35)

let test_tree_wl_trend_agreement () =
  (* Fig. 10: both engines must agree on the ordering across W/L *)
  let tree = Fixtures.tree ~stages:2 ~fanout:3 () in
  let c = tree.Circuits.Inverter_tree.circuit in
  let delays engine =
    List.map
      (fun wl ->
        let m =
          Mtcmos.Sizing.delay_at
            ~ctx:Eval.Ctx.(default |> with_engine engine)
            c
            ~vectors:[ ([ (1, 0) ], [ (1, 1) ]) ]
            ~wl
        in
        m.Mtcmos.Sizing.mtcmos_delay)
      [ 5.0; 10.0; 20.0 ]
  in
  let bp = delays Eval.Breakpoint in
  let sp = delays Eval.Spice_level in
  let decreasing l =
    let rec go = function
      | a :: (b :: _ as rest) -> a > b && go rest
      | [ _ ] | [] -> true
    in
    go l
  in
  Alcotest.(check bool) "bp trend" true (decreasing bp);
  Alcotest.(check bool) "spice trend" true (decreasing sp)

let test_adder_vector_ordering () =
  (* Fig. 14's claim: the fast tool orders vectors like the detailed
     simulator.  Check rank correlation over a vector sample. *)
  let add = Fixtures.adder 2 in
  let c = add.Circuits.Ripple_adder.circuit in
  let pairs =
    [ ([ (2, 0); (2, 0) ], [ (2, 3); (2, 3) ]);
      ([ (2, 0); (2, 0) ], [ (2, 1); (2, 0) ]);
      ([ (2, 1); (2, 2) ], [ (2, 2); (2, 1) ]);
      ([ (2, 3); (2, 0) ], [ (2, 0); (2, 3) ]);
      ([ (2, 2); (2, 2) ], [ (2, 3); (2, 3) ]);
      ([ (2, 1); (2, 1) ], [ (2, 3); (2, 1) ]) ]
  in
  let cfg_bp = { BP.default_config with BP.sleep = sleep 6.0 } in
  let cfg_sp = { SR.default_config with SR.sleep = sleep 6.0; t_stop = 8e-9 } in
  let d_bp =
    List.map
      (fun (before, after) ->
        let r = BP.simulate_ints ~config:cfg_bp c ~before ~after in
        match BP.critical_delay r with Some (_, d) -> d | None -> 0.0)
      pairs
  in
  let d_sp =
    List.map
      (fun (before, after) ->
        let r = SR.run_ints ~config:cfg_sp c ~before ~after in
        match SR.critical_delay r with Some (_, d) -> d | None -> 0.0)
      pairs
  in
  let rho =
    Phys.Stats.rank_correlation (Array.of_list d_bp) (Array.of_list d_sp)
  in
  Alcotest.(check bool)
    (Printf.sprintf "rank correlation %.2f >= 0.5" rho)
    true (rho >= 0.5)

let test_spice_reverse_conduction_effect () =
  (* §2.3 in the transistor-level engine: while the tree discharges, a
     nominally-low output of an idle gate rides up above ground *)
  let b = Netlist.Circuit.builder tech in
  let flood_in = Netlist.Circuit.add_input ~name:"flood" b in
  let quiet_in = Netlist.Circuit.add_input ~name:"quiet" b in
  (* nine discharging inverters bounce the rail *)
  for i = 0 to 8 do
    let o =
      Netlist.Circuit.add_gate
        ~name:(Printf.sprintf "f%d" i)
        b Netlist.Gate.Inv [ flood_in ]
    in
    Netlist.Circuit.add_load b o 50e-15
  done;
  (* one idle inverter holding a low output *)
  let victim = Netlist.Circuit.add_gate ~name:"victim" b Netlist.Gate.Inv
      [ quiet_in ] in
  Netlist.Circuit.add_load b victim 20e-15;
  Netlist.Circuit.mark_output b victim;
  let c = Netlist.Circuit.freeze b in
  let cfg = { SR.default_config with SR.sleep = sleep 4.0; t_stop = 4e-9 } in
  let run =
    SR.run c ~before:[| S.L0; S.L1 |] ~after:[| S.L1; S.L1 |] ~config:cfg
  in
  let w = SR.net_waveform run victim in
  let _, v_peak = Phys.Pwl.extrema w in
  Alcotest.(check bool)
    (Printf.sprintf "victim low output bounced to %.0f mV" (v_peak *. 1e3))
    true
    (v_peak > 0.03);
  Alcotest.(check bool) "but stays below the rail bounce" true
    (v_peak <= SR.vx_peak run +. 0.05)

let test_cx_capacitance_helps () =
  (* §2.2: a big virtual-ground capacitor absorbs the transient *)
  let tree = Fixtures.tree ~stages:2 ~fanout:3 () in
  let c = tree.Circuits.Inverter_tree.circuit in
  let run cx =
    let cfg =
      { SR.default_config with SR.sleep = sleep 6.0; cx_extra = cx;
        t_stop = 6e-9 }
    in
    SR.run ~config:cfg c ~before:[| S.L0 |] ~after:[| S.L1 |]
  in
  let small = run 0.0 in
  let big = run 10e-12 in
  Alcotest.(check bool) "10 pF reduces the peak bounce" true
    (SR.vx_peak big < SR.vx_peak small)

let test_spice_ref_validation () =
  let tree = Fixtures.tree ~stages:2 ~fanout:2 () in
  let c = tree.Circuits.Inverter_tree.circuit in
  Alcotest.check_raises "x input" (Invalid_argument "Spice_ref.run: X input")
    (fun () -> ignore (SR.run c ~before:[| S.X |] ~after:[| S.L1 |]));
  let run = SR.run c ~before:[| S.L0 |] ~after:[| S.L0 |] in
  Alcotest.(check bool) "no transition, no delay" true
    (SR.critical_delay run = None);
  Alcotest.(check bool) "cmos run has no vground" true
    (SR.vground_waveform run = None)

let test_dc_matches_logic_random () =
  (* whole-stack validation: expand a random DAG, solve the transistor-
     level DC at static inputs, and require every net to sit at its
     logic-simulator rail *)
  let n_checked = ref 0 in
  List.iter
    (fun seed ->
      let r = Circuits.Random_logic.make ~seed tech ~inputs:4 ~gates:10 in
      let c = r.Circuits.Random_logic.circuit in
      let v = seed land 15 in
      let bits = Netlist.Signal.bits_of_int ~width:4 v in
      let stimuli =
        Array.to_list
          (Array.mapi
             (fun i n ->
               ( n,
                 Phys.Pwl.constant
                   (match bits.(i) with
                    | S.L1 -> 1.2
                    | S.L0 | S.X -> 0.0) ))
             (Netlist.Circuit.inputs c))
      in
      let inst = Netlist.Expand.expand c ~stimuli in
      let eng = Spice.Engine.prepare inst.Netlist.Expand.netlist in
      let x = Fixtures.solved (Spice.Engine.dc_r eng) in
      let logic = Netlist.Logic_sim.eval c bits in
      for net = 0 to Netlist.Circuit.num_nets c - 1 do
        let volt =
          Spice.Engine.voltage eng x inst.Netlist.Expand.node_of_net.(net)
        in
        incr n_checked;
        match logic.(net) with
        | S.L1 ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d net %d high (%.3f)" seed net volt)
            true (volt > 1.1)
        | S.L0 ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d net %d low (%.3f)" seed net volt)
            true (volt < 0.1)
        | S.X -> ()
      done)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  Alcotest.(check bool) "checked many nets" true (!n_checked > 80)

let test_sleep_current_cross_engine () =
  (* §4's peak current, measured both ways *)
  let tree = Fixtures.tree ~stages:3 ~fanout:3 () in
  let c = tree.Circuits.Inverter_tree.circuit in
  let sl = sleep 20.0 in
  let sp_cfg = { SR.default_config with SR.sleep = sl; t_stop = 8e-9 } in
  let sp = SR.run_ints ~config:sp_cfg c ~before:[ (1, 0) ] ~after:[ (1, 1) ] in
  let i_sp = SR.peak_sleep_current sp in
  let bp_cfg = { BP.default_config with BP.sleep = sl } in
  let bp = BP.simulate_ints ~config:bp_cfg c ~before:[ (1, 0) ] ~after:[ (1, 1) ] in
  let i_bp = BP.peak_discharge_current bp in
  Alcotest.(check bool) "both positive" true (i_sp > 0.0 && i_bp > 0.0);
  let ratio = i_bp /. i_sp in
  Alcotest.(check bool)
    (Printf.sprintf "peak currents agree within 40%% (ratio %.2f)" ratio)
    true
    (ratio > 0.6 && ratio < 1.4)

let suite =
  [ Alcotest.test_case "chain cmos agreement" `Slow test_chain_cmos_agreement;
    Alcotest.test_case "dc matches logic (random)" `Slow
      test_dc_matches_logic_random;
    Alcotest.test_case "sleep current cross-engine" `Slow
      test_sleep_current_cross_engine;
    Alcotest.test_case "tree mtcmos agreement" `Slow
      test_tree_mtcmos_agreement;
    Alcotest.test_case "tree W/L trend agreement" `Slow
      test_tree_wl_trend_agreement;
    Alcotest.test_case "adder vector ordering" `Slow
      test_adder_vector_ordering;
    Alcotest.test_case "spice reverse conduction" `Slow
      test_spice_reverse_conduction_effect;
    Alcotest.test_case "cx capacitance helps" `Slow test_cx_capacitance_helps;
    Alcotest.test_case "spice_ref validation" `Quick test_spice_ref_validation ]
