(* Core-library tests: virtual-ground solver, delay model, breakpoint
   simulator, sizing, vectors, estimators, reverse conduction. *)

module BP = Mtcmos.Breakpoint_sim
module S = Netlist.Signal

let tech = Fixtures.tech

let gate ?(vin = 1.2) beta_wl = { Mtcmos.Vground.beta_wl; vin }

(* ---- virtual ground ---------------------------------------------------- *)

let test_vground_empty () =
  let cfg = Mtcmos.Vground.config tech in
  Alcotest.(check (float 1e-15)) "no gates, no bounce" 0.0
    (Mtcmos.Vground.solve_resistor cfg ~r:1000.0 []);
  Alcotest.(check (float 1e-15)) "zero resistance, no bounce" 0.0
    (Mtcmos.Vground.solve_resistor cfg ~r:0.0 [ gate 2.0 ])

let test_vground_balance () =
  let cfg = Mtcmos.Vground.config tech in
  let gates = [ gate 2.0; gate 3.0; gate 1.5 ] in
  let r = 800.0 in
  let vx = Mtcmos.Vground.solve_resistor cfg ~r gates in
  Alcotest.(check bool) "bounce in (0, vdd)" true (vx > 0.0 && vx < 1.2);
  (* KCL at the equilibrium: vx / r = total gate current *)
  let i = Mtcmos.Vground.total_current cfg ~vx gates in
  Alcotest.(check (float 1e-6)) "current balance" (vx /. r) i

let test_vground_monotonic () =
  let cfg = Mtcmos.Vground.config tech in
  let vx_of_r r = Mtcmos.Vground.solve_resistor cfg ~r [ gate 2.0; gate 2.0 ] in
  Alcotest.(check bool) "more resistance, more bounce" true
    (vx_of_r 2000.0 > vx_of_r 500.0);
  let vx_of_n n =
    Mtcmos.Vground.solve_resistor cfg ~r:1000.0
      (List.init n (fun _ -> gate 2.0))
  in
  Alcotest.(check bool) "more gates, more bounce" true
    (vx_of_n 9 > vx_of_n 1)

let test_vground_quadratic_cross_check () =
  let cfg2 =
    { (Mtcmos.Vground.config ~body_effect:false tech) with
      Mtcmos.Vground.model =
        Device.Alpha_power.of_level1 tech.Device.Tech.nmos ~alpha:2.0 }
  in
  let gates = [ gate 2.0; gate 4.0 ] in
  let numeric = Mtcmos.Vground.solve_resistor cfg2 ~r:1500.0 gates in
  let closed = Mtcmos.Vground.solve_quadratic cfg2 ~r:1500.0 gates in
  Alcotest.(check (float 1e-9)) "closed form matches brent" closed numeric;
  let cfg_be = Mtcmos.Vground.config tech in
  Alcotest.check_raises "guard body effect"
    (Invalid_argument "Vground.solve_quadratic: alpha must be 2") (fun () ->
      ignore (Mtcmos.Vground.solve_quadratic cfg_be ~r:1.0 gates))

let test_vground_body_effect_lowers_current () =
  let with_be = Mtcmos.Vground.config ~body_effect:true tech in
  let without = Mtcmos.Vground.config ~body_effect:false tech in
  let vx = 0.3 in
  let i_be = Mtcmos.Vground.gate_current with_be ~vx (gate 2.0) in
  let i_no = Mtcmos.Vground.gate_current without ~vx (gate 2.0) in
  Alcotest.(check bool) "body effect reduces current" true (i_be < i_no)

let test_vground_device_vs_resistor () =
  let cfg = Mtcmos.Vground.config tech in
  let sleep = Device.Sleep.nmos_footer tech ~wl:50.0 in
  let r = Device.Sleep.effective_resistance sleep in
  let gates = [ gate 1.5 ] in
  let vx_dev = Mtcmos.Vground.solve_device cfg ~sleep gates in
  let vx_res = Mtcmos.Vground.solve_resistor cfg ~r gates in
  (* at small bounce the linear-resistor model agrees with the device *)
  Alcotest.(check bool) "linear approx holds at small vx" true
    (Float.abs (vx_dev -. vx_res) /. vx_dev < 0.2)

(* ---- delay model -------------------------------------------------------- *)

let test_delay_model () =
  let m = Mtcmos.Delay_model.of_tech tech in
  let d0 = Mtcmos.Delay_model.cmos_gate_delay m ~beta_wl:1.5 ~cl:50e-15 in
  Alcotest.(check bool) "cmos delay positive" true
    (d0 > 0.0 && Float.is_finite d0);
  let d1 =
    Mtcmos.Delay_model.mtcmos_gate_delay m ~r:1000.0 ~others_beta_wl:[]
      ~beta_wl:1.5 ~cl:50e-15
  in
  let d9 =
    Mtcmos.Delay_model.mtcmos_gate_delay m ~r:1000.0
      ~others_beta_wl:(List.init 8 (fun _ -> 1.5))
      ~beta_wl:1.5 ~cl:50e-15
  in
  Alcotest.(check bool) "mtcmos slower than cmos" true (d1 > d0);
  Alcotest.(check bool) "companions slow a gate further" true (d9 > d1);
  let sl = Mtcmos.Delay_model.discharge_slope m ~vx:0.0 ~beta_wl:1.5
      ~vin:1.2 ~cl:50e-15 in
  Alcotest.(check bool) "discharge slope negative" true (sl < 0.0);
  let sl_b = Mtcmos.Delay_model.discharge_slope m ~vx:0.3 ~beta_wl:1.5
      ~vin:1.2 ~cl:50e-15 in
  Alcotest.(check bool) "bounce flattens the slope" true (sl_b > sl);
  Alcotest.(check bool) "charge slope positive" true
    (Mtcmos.Delay_model.charge_slope m ~wl_pull_up:3.0 ~cl:50e-15 > 0.0)

(* ---- breakpoint simulator ----------------------------------------------- *)

let tree3 = Fixtures.tree ~stages:3 ~fanout:3 ()
let tree_c = tree3.Circuits.Inverter_tree.circuit

let run_tree cfg =
  BP.simulate ~config:cfg tree_c ~before:[| S.L0 |] ~after:[| S.L1 |]

let test_bp_cmos_tree () =
  let r = run_tree BP.default_config in
  (match BP.critical_delay r with
   | Some (_, d) -> Alcotest.(check bool) "tree delay ~ 3 stages" true
       (d > 100e-12 && d < 3e-9)
   | None -> Alcotest.fail "no output transition");
  Alcotest.(check (float 1e-15)) "no bounce in cmos" 0.0 (BP.vx_peak r);
  Alcotest.(check bool) "events occurred" true (BP.events r > 3);
  Alcotest.(check bool) "peak current positive" true
    (BP.peak_discharge_current r > 0.0)

let test_bp_mtcmos_slower_and_bouncy () =
  let cm = run_tree BP.default_config in
  let mt = run_tree (BP.mtcmos_config tech ~wl:10.0) in
  let d_cm = match BP.critical_delay cm with Some (_, d) -> d | None -> 0.0 in
  let d_mt = match BP.critical_delay mt with Some (_, d) -> d | None -> 0.0 in
  Alcotest.(check bool) "mtcmos slower" true (d_mt > d_cm);
  Alcotest.(check bool) "bounce seen" true (BP.vx_peak mt > 0.05);
  Alcotest.(check bool) "bounce below vdd" true (BP.vx_peak mt < 1.2);
  (* vground waveform peaks at vx_peak *)
  let _, vmax = Phys.Pwl.extrema (BP.vground_waveform mt) in
  Alcotest.(check (float 1e-9)) "waveform peak consistent" (BP.vx_peak mt)
    vmax

let test_bp_delay_decreases_with_wl () =
  let d_of wl =
    match BP.critical_delay (run_tree (BP.mtcmos_config tech ~wl)) with
    | Some (_, d) -> d
    | None -> Alcotest.fail "no transition"
  in
  let d5 = d_of 5.0 and d20 = d_of 20.0 and d100 = d_of 100.0 in
  Alcotest.(check bool) "5 < 20" true (d5 > d20);
  Alcotest.(check bool) "20 < 100" true (d20 > d100)

let test_bp_single_inverter_matches_closed_form () =
  let ch = Fixtures.chain ~cl:50e-15 1 in
  let c = ch.Circuits.Chain.circuit in
  let r = BP.simulate c ~before:[| S.L0 |] ~after:[| S.L1 |] in
  let d =
    match BP.net_delay r ch.Circuits.Chain.taps.(0) with
    | Some d -> d
    | None -> Alcotest.fail "no transition"
  in
  let m = Mtcmos.Delay_model.of_tech tech in
  let cl = Netlist.Circuit.load_capacitance c ch.Circuits.Chain.taps.(0) in
  let expected =
    Mtcmos.Delay_model.cmos_gate_delay m ~beta_wl:tech.Device.Tech.wl_n_unit
      ~cl
  in
  Alcotest.(check (float (expected *. 0.02))) "matches CL*Vdd/2I" expected d

let test_bp_no_transition () =
  let r = BP.simulate tree_c ~before:[| S.L1 |] ~after:[| S.L1 |] in
  Alcotest.(check bool) "no critical delay" true (BP.critical_delay r = None);
  Alcotest.(check int) "no events" 0 (BP.events r)

let test_bp_extreme_resistance () =
  (* with an absurd sleep resistance the equilibrium current collapses
     (the gates sit just below cutoff) and the delay explodes but the
     simulation still terminates — the paper's "very high resistance
     case (unrealistic/undesirable in actual circuits)" *)
  let cfg = { BP.default_config with BP.sleep = BP.Resistor 1e8 } in
  let slow = run_tree cfg in
  let fast = run_tree BP.default_config in
  let d_slow =
    match BP.critical_delay slow with Some (_, d) -> d | None -> infinity
  in
  let d_fast =
    match BP.critical_delay fast with Some (_, d) -> d | None -> 0.0
  in
  Alcotest.(check bool) "delay exploded" true (d_slow > 100.0 *. d_fast);
  Alcotest.(check bool) "bounce near cutoff" true (BP.vx_peak slow > 0.5)

(* a sleep device so small that, late in the run, a breakpoint lies
   within one ulp of the current time: the simulation must step past it
   and finish, and the delay scales as 1/(W/L) *)
let test_bp_tiny_sleep_device () =
  let c = Fixtures.adder8 () in
  let delay wl =
    let r =
      BP.simulate_ints ~config:(BP.mtcmos_config tech ~wl) c
        ~before:[ (8, 0); (8, 0) ] ~after:[ (8, 255); (8, 1) ]
    in
    Alcotest.(check bool)
      (Printf.sprintf "W/L %g: under 1000 breakpoints" wl)
      true
      (BP.events r < 1000);
    match BP.critical_delay r with
    | Some (_, d) -> d
    | None -> Alcotest.fail "no transition"
  in
  let d6 = delay 1e-6 and d9 = delay 1e-9 and d12 = delay 1e-12 in
  Alcotest.(check (float 0.01)) "1e-6 -> 1e-9 scales by 1000" 1.0
    (d9 /. d6 /. 1e3);
  Alcotest.(check (float 0.01)) "1e-9 -> 1e-12 scales by 1000" 1.0
    (d12 /. d9 /. 1e3)

let test_bp_input_validation () =
  Alcotest.check_raises "x input"
    (Invalid_argument "Breakpoint_sim: X in before") (fun () ->
      ignore (BP.simulate tree_c ~before:[| S.X |] ~after:[| S.L1 |]));
  Alcotest.check_raises "length"
    (Invalid_argument "Breakpoint_sim: before length mismatch") (fun () ->
      ignore (BP.simulate tree_c ~before:[||] ~after:[| S.L1 |]))

(* packed entry points check that the widths cover the inputs, and say
   which widths they were given *)
let test_bp_packed_widths () =
  let c = (Fixtures.adder 2).Circuits.Ripple_adder.circuit in
  Alcotest.check_raises "widths miss an input"
    (Invalid_argument
       "Circuit.pack_ints: widths [2; 1] cover 3 bit(s) but the circuit \
        has 4 primary inputs")
    (fun () ->
      ignore
        (BP.simulate_ints c ~before:[ (2, 0); (1, 0) ]
           ~after:[ (2, 3); (1, 1) ]))

(* two inverters, on inputs [a] (gate 0) and [x] (gate 1), under a
   partition of one block *)
let two_inverters_partitioned block_of_gate =
  let b = Netlist.Circuit.builder tech in
  let a = Netlist.Circuit.add_input b in
  let x = Netlist.Circuit.add_input b in
  let na = Netlist.Circuit.add_gate b Netlist.Gate.Inv [ a ] in
  let nx = Netlist.Circuit.add_gate b Netlist.Gate.Inv [ x ] in
  Netlist.Circuit.mark_output b na;
  Netlist.Circuit.mark_output b nx;
  let c = Netlist.Circuit.freeze b in
  let sleeps = [| BP.Sleep_fet (Device.Sleep.nmos_footer tech ~wl:5.0) |] in
  let config =
    { BP.default_config with BP.partition = Some { BP.block_of_gate; sleeps } }
  in
  (* only [a] switches: the [x] inverter never does *)
  fun () ->
    ignore
      (BP.simulate ~config c ~before:[| S.L0; S.L0 |] ~after:[| S.L1; S.L0 |])

(* every gate's block is range-checked up front: a mis-mapped gate fails
   the simulation even on a vector that never switches it *)
let test_bp_partition_range_checked () =
  (* the [x] inverter (gate 1) is mapped past the single block *)
  Alcotest.check_raises "x never switches"
    (Invalid_argument "Breakpoint_sim: block index out of range")
    (two_inverters_partitioned [| 0; 1 |])

(* so is the partition's length: a gate it does not cover fails the
   simulation even when that gate never switches *)
let test_bp_partition_length_checked () =
  Alcotest.check_raises "x not covered"
    (Invalid_argument "Breakpoint_sim: partition length mismatch")
    (two_inverters_partitioned [| 0 |])

let test_bp_glitch_visible () =
  (* a,b both toggle: the nand output glitches in a static hazard;
     waveforms stay within the rails regardless *)
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
  let r =
    BP.simulate ~config:(BP.mtcmos_config tech ~wl:5.0) c
      ~before:[| S.L1; S.L1 |] ~after:[| S.L0; S.L1 |]
  in
  let w = BP.waveform r out in
  let mn, mx = Phys.Pwl.extrema w in
  Alcotest.(check bool) "within rails" true (mn >= -1e-9 && mx <= 1.2 +. 1e-9)

(* ---- sizing -------------------------------------------------------------- *)

let tree_vec = ([ (1, 0) ], [ (1, 1) ])

let test_sizing_sweep_monotone () =
  let ms =
    Mtcmos.Sizing.sweep tree_c ~vectors:[ tree_vec ]
      ~wls:[ 5.0; 10.0; 20.0; 40.0 ]
  in
  Alcotest.(check int) "four points" 4 (List.length ms);
  let degs = List.map (fun m -> m.Mtcmos.Sizing.degradation) ms in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b && decreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "degradation decreasing in wl" true (decreasing degs);
  List.iter
    (fun m ->
      Alcotest.(check bool) "baseline shared" true
        (m.Mtcmos.Sizing.cmos_delay = (List.hd ms).Mtcmos.Sizing.cmos_delay))
    ms

let test_size_for_degradation () =
  let wl =
    Mtcmos.Sizing.size_for_degradation tree_c ~vectors:[ tree_vec ]
      ~target:0.05
  in
  let m = Mtcmos.Sizing.delay_at tree_c ~vectors:[ tree_vec ] ~wl in
  Alcotest.(check bool) "meets the target" true
    (m.Mtcmos.Sizing.degradation <= 0.05 +. 1e-6);
  let m_small =
    Mtcmos.Sizing.delay_at tree_c ~vectors:[ tree_vec ] ~wl:(wl /. 1.5)
  in
  Alcotest.(check bool) "not grossly oversized" true
    (m_small.Mtcmos.Sizing.degradation > 0.05 /. 2.0)

let test_sizing_guards () =
  Alcotest.check_raises "empty vectors"
    (Invalid_argument "Sizing: empty vector list") (fun () ->
      ignore (Mtcmos.Sizing.sweep tree_c ~vectors:[] ~wls:[ 1.0 ]));
  (try
     ignore
       (Mtcmos.Sizing.size_for_degradation tree_c ~vectors:[ tree_vec ]
          ~wl_hi:1.0 ~target:0.0001);
     Alcotest.fail "expected Not_found"
   with Not_found -> ());
  Alcotest.check_raises "NaN target"
    (Invalid_argument "Sizing: target is NaN") (fun () ->
      ignore
        (Mtcmos.Sizing.size_for_degradation tree_c ~vectors:[ tree_vec ]
           ~target:Float.nan))

(* The reference the early-exit probe must equal: every vector
   simulated at every probe, the worst delay tested once. *)
let reference_size ?obs ?(wl_hi = 4096.0) c ~vectors ~target =
  let worst config =
    fst (Mtcmos.Sizing.worst_delay_bp ?obs ~config c vectors)
  in
  let base = worst BP.default_config in
  if base = 0.0 then failwith "no output switches";
  let degradation wl =
    (worst (BP.mtcmos_config (Netlist.Circuit.tech c) ~wl) -. base) /. base
  in
  if degradation wl_hi > target then raise Not_found;
  Mtcmos.Sizing.smallest_feasible ~lo:0.5 ~hi:wl_hi (fun wl ->
      degradation wl <= target)

(* [n] pairs whose logic-level outputs differ, drawn from [st] *)
let switching_pairs st c ~widths n =
  let outs v =
    let s = Netlist.Logic_sim.eval_ints c v in
    Array.map (fun o -> s.(o)) (Netlist.Circuit.outputs c)
  in
  let pick () =
    List.map (fun w -> (w, Random.State.int st (1 lsl w))) widths
  in
  let rec switching tries =
    if tries = 0 then None
    else
      let b = pick () and a = pick () in
      if outs b <> outs a then Some (b, a) else switching (tries - 1)
  in
  List.filter_map (fun _ -> switching 50) (List.init n Fun.id)

(* [f]'s answer and the breakpoint simulations it ran *)
let with_simulations f =
  let obs = Obs.create () in
  let wl = f obs in
  (wl, Obs.Metrics.count (Obs.metrics obs) "bp.simulations")

(* the probe's simulation count is deterministic, so its saving is a
   tier-1 floor: at most 1/1.5 of the full evaluation's, same answer *)
let test_size_probe_cost () =
  List.iter
    (fun (name, c, widths) ->
      let vectors =
        switching_pairs (Random.State.make [| 11 |]) c ~widths 8
      in
      Alcotest.(check int) (name ^ ": 8 switching pairs") 8
        (List.length vectors);
      let target = 0.06 in
      let probe obs =
        Mtcmos.Sizing.size_for_degradation
          ~ctx:(Eval.Ctx.with_obs obs Eval.Ctx.default)
          c ~vectors ~target
      in
      let full obs = reference_size ~obs c ~vectors ~target in
      let wl_p, p = with_simulations probe
      and wl_f, f = with_simulations full in
      Alcotest.(check (float 0.0)) (name ^ ": same answer") wl_f wl_p;
      if 3 * p > 2 * f then
        Alcotest.failf "%s: probe ran %d simulations, full evaluation %d"
          name p f)
    [ ("adder8", Fixtures.adder_circuit 8, [ 8; 8 ]);
      ("mult4", Fixtures.mult_circuit ~tech:Fixtures.tech03 4, [ 4; 4 ]) ]

(* ---- vectors -------------------------------------------------------------- *)

let test_vector_enumeration () =
  let pairs = Mtcmos.Vectors.enumerate_pairs ~widths:[ 2; 1 ] in
  Alcotest.(check int) "8 x 8 pairs" 64 (List.length pairs);
  Alcotest.(check int) "lazy count matches" 64
    (Seq.length (Mtcmos.Vectors.all_pairs ~widths:[ 2; 1 ]));
  let sample = Mtcmos.Vectors.random_pairs ~widths:[ 3; 3 ] 10 in
  Alcotest.(check int) "sample size" 10 (List.length sample);
  List.iter
    (fun (b, a) ->
      List.iter
        (fun (w, v) ->
          Alcotest.(check bool) "in range" true (v >= 0 && v < 1 lsl w))
        (b @ a))
    sample;
  Alcotest.check_raises "space too large"
    (Invalid_argument "Vectors.enumerate_pairs: space too large; use all_pairs")
    (fun () -> ignore (Mtcmos.Vectors.enumerate_pairs ~widths:[ 12 ]))

let adder3 = Fixtures.adder 3
let adder_c = adder3.Circuits.Ripple_adder.circuit

let test_vector_ranking () =
  let pairs = Mtcmos.Vectors.random_pairs ~widths:[ 3; 3 ] 40 in
  let sleep = BP.Sleep_fet (Device.Sleep.nmos_footer tech ~wl:10.0) in
  let ranked = Mtcmos.Vectors.rank adder_c ~sleep ~pairs in
  Alcotest.(check bool) "some vectors switch" true (List.length ranked > 5);
  let degs = List.map (fun r -> r.Mtcmos.Vectors.degradation) ranked in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a >= b && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted worst-first" true (sorted degs);
  let top = Mtcmos.Vectors.worst adder_c ~sleep ~pairs ~top:3 in
  Alcotest.(check int) "top 3" 3 (List.length top);
  Alcotest.(check (float 1e-12)) "worst is first"
    (List.hd degs)
    (List.hd top).Mtcmos.Vectors.degradation

let test_vectors_involving_output () =
  let s2 = adder3.Circuits.Ripple_adder.sums.(2) in
  let pairs = Mtcmos.Vectors.enumerate_pairs ~widths:[ 3; 3 ] in
  let s2_pairs = Mtcmos.Vectors.involving_output adder_c ~net:s2 ~pairs in
  Alcotest.(check bool) "filtered to a strict subset" true
    (List.length s2_pairs > 0 && List.length s2_pairs < List.length pairs);
  (* every kept pair flips S2's steady state *)
  List.iter
    (fun (before, after) ->
      let v0 = (Netlist.Logic_sim.eval_ints adder_c before).(s2) in
      let v1 = (Netlist.Logic_sim.eval_ints adder_c after).(s2) in
      Alcotest.(check bool) "s2 flips" false (Netlist.Signal.equal v0 v1))
    s2_pairs

(* ---- estimators and reverse conduction ----------------------------------- *)

let test_estimators () =
  let sow = Mtcmos.Estimators.sum_of_widths adder_c in
  Alcotest.(check (float 1e-9)) "sum-of-widths = total pulldown wl"
    (Netlist.Circuit.total_pulldown_wl adder_c)
    sow;
  let wl = Mtcmos.Estimators.peak_current_wl tech ~i_peak:1.174e-3 ~v_budget:0.05 in
  (* R = 50mV / 1.174mA = 42.6 ohm; wl = 1/(kp R (vdd - vth)) *)
  let r = 0.05 /. 1.174e-3 in
  let expect = 1.0 /. (110e-6 *. r *. (1.2 -. 0.75)) in
  Alcotest.(check (float 1.0)) "peak-current formula" expect wl;
  let ip =
    Mtcmos.Estimators.peak_current_of_transition adder_c
      ~before:[ (3, 0); (3, 0) ] ~after:[ (3, 7); (3, 7) ]
  in
  Alcotest.(check bool) "peak current positive" true (ip > 0.0);
  let ip0 =
    Mtcmos.Estimators.peak_current_of_transition adder_c
      ~before:[ (3, 0); (3, 0) ] ~after:[ (3, 0); (3, 0) ]
  in
  Alcotest.(check (float 1e-12)) "idle transition draws nothing" 0.0 ip0;
  let vb = Mtcmos.Estimators.v_budget_for_degradation tech ~target:0.05 in
  Alcotest.(check bool) "budget reasonable" true (vb > 0.01 && vb < 0.1)

let test_reverse_conduction_assess () =
  let a = Mtcmos.Reverse_conduction.assess tech ~vx:0.2 in
  Alcotest.(check (float 1e-12)) "v_low = vx" 0.2
    a.Mtcmos.Reverse_conduction.v_low;
  Alcotest.(check (float 1e-9)) "margin erosion" 0.15
    a.Mtcmos.Reverse_conduction.nm_low_remaining;
  Alcotest.(check bool) "not a logic failure" false
    a.Mtcmos.Reverse_conduction.logic_failure;
  let bad = Mtcmos.Reverse_conduction.assess tech ~vx:0.7 in
  Alcotest.(check bool) "failure at vx > vdd/2" true
    bad.Mtcmos.Reverse_conduction.logic_failure

(* ---- properties ----------------------------------------------------------- *)

let prop_vground_bounded =
  let cfg = Mtcmos.Vground.config tech in
  QCheck.Test.make ~count:200 ~name:"vground: vx in [0, vdd]"
    QCheck.(pair (float_range 1.0 1e6) (int_range 0 30))
    (fun (r, n) ->
      let gates = List.init n (fun _ -> gate 2.0) in
      let vx = Mtcmos.Vground.solve_resistor cfg ~r gates in
      vx >= 0.0 && vx <= 1.2)

(* drive lists mixing full, partial and below-threshold gate voltages,
   in runs and interleaved, with the body effect on and off *)
let drive_gen =
  QCheck.(
    triple bool (float_range 0.0 1.2)
      (list_of_size Gen.(0 -- 12)
         (pair (float_range 0.1 20.0)
            (oneofl [ 1.2; 1.2; 1.0; 0.7; 0.4; 0.3; 0.0 ]))))

let vground_cfg body_effect = Mtcmos.Vground.config ~body_effect tech

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_total_current_is_gate_fold =
  QCheck.Test.make ~count:300
    ~name:"vground: total_current = gate_current fold, bit for bit" drive_gen
    (fun (body_effect, vx, drives) ->
      let cfg = vground_cfg body_effect in
      let gates = List.map (fun (wl, vin) -> gate ~vin wl) drives in
      same_bits
        (Mtcmos.Vground.total_current cfg ~vx gates)
        (List.fold_left
           (fun acc g -> acc +. Mtcmos.Vground.gate_current cfg ~vx g)
           0.0 gates))

let prop_sat_current_is_overdrive_power =
  QCheck.Test.make ~count:300
    ~name:"alpha-power: sat_current = beta/2 * wl * overdrive_power"
    drive_gen
    (fun (body_effect, vx, drives) ->
      let m = (vground_cfg body_effect).Mtcmos.Vground.model in
      List.for_all
        (fun (wl, vin) ->
          let vgs = vin -. vx and vsb = vx in
          same_bits
            (Device.Alpha_power.sat_current m ~wl ~vgs ~vsb)
            (0.5 *. m.Device.Alpha_power.beta *. wl
            *. Device.Alpha_power.overdrive_power m ~vgs ~vsb))
        drives)

let prop_bp_delay_monotone_in_wl =
  QCheck.Test.make ~count:25 ~name:"breakpoint: delay monotone in sleep size"
    QCheck.(pair (float_range 2.0 100.0) (float_range 1.1 4.0))
    (fun (wl, factor) ->
      let d_of wl =
        match BP.critical_delay (run_tree (BP.mtcmos_config tech ~wl)) with
        | Some (_, d) -> d
        | None -> infinity
      in
      d_of wl >= d_of (wl *. factor) -. 1e-15)

(* A seed draws a random DAG, 1-8 switching pairs, a target and the top
   of the W/L range (2 to 4096, so some draws are infeasible); the
   probe-driven bisection, with and without a cache (cold, then warm),
   must return the reference's W/L bit for bit or raise as it does.
   Nothing here assumes delay is monotone in W/L. *)
let prop_size_probe_matches_reference =
  QCheck.Test.make ~count:100
    ~name:"sizing: early-exit probe = full worst-delay bisection"
    QCheck.(int_bound 999_999)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let inputs = 2 + Random.State.int st 4 in
      let gates = 4 + Random.State.int st 17 in
      let c = Fixtures.random_circuit ~seed ~inputs ~gates () in
      let vectors =
        switching_pairs st c ~widths:[ inputs ] (1 + Random.State.int st 8)
      in
      QCheck.assume (vectors <> []);
      let target = 0.01 +. Random.State.float st 0.29 in
      let wl_hi = Float.ldexp 1.0 (1 + Random.State.int st 12) in
      let outcome f =
        match f () with
        | wl -> Ok (Int64.bits_of_float wl)
        | exception Not_found -> Error "Not_found"
        | exception Failure _ -> Error "Failure"
      in
      let expected =
        outcome (fun () -> reference_size ~wl_hi c ~vectors ~target)
      in
      let size ctx () =
        Mtcmos.Sizing.size_for_degradation ~ctx ~wl_hi c ~vectors ~target
      in
      let cached =
        Eval.Ctx.with_cache (Eval.Cache.create ()) Eval.Ctx.default
      in
      List.for_all
        (fun ctx -> outcome (size ctx) = expected)
        [ Eval.Ctx.default; cached; cached ])

let prop_bp_waveforms_in_rails =
  let pairs = Mtcmos.Vectors.enumerate_pairs ~widths:[ 2; 2 ] in
  let add2 = Fixtures.adder 2 in
  let c2 = add2.Circuits.Ripple_adder.circuit in
  let n_pairs = List.length pairs in
  QCheck.Test.make ~count:120 ~name:"breakpoint: 2-bit adder stays in rails"
    QCheck.(int_bound (n_pairs - 1))
    (fun i ->
      let before, after = List.nth pairs i in
      let r =
        BP.simulate_ints ~config:(BP.mtcmos_config tech ~wl:8.0) c2 ~before
          ~after
      in
      Array.for_all
        (fun n ->
          let mn, mx = Phys.Pwl.extrema (BP.waveform r n) in
          mn >= -1e-6 && mx <= 1.2 +. 1e-6)
        (Netlist.Circuit.outputs c2))

let prop_bp_final_state_matches_logic =
  let pairs = Mtcmos.Vectors.enumerate_pairs ~widths:[ 2; 2 ] in
  let add2 = Fixtures.adder 2 in
  let c2 = add2.Circuits.Ripple_adder.circuit in
  let n_pairs = List.length pairs in
  QCheck.Test.make ~count:120
    ~name:"breakpoint: settles to the logic-simulator state"
    QCheck.(int_bound (n_pairs - 1))
    (fun i ->
      let before, after = List.nth pairs i in
      let r =
        BP.simulate_ints ~config:(BP.mtcmos_config tech ~wl:20.0) c2 ~before
          ~after
      in
      let target = Netlist.Logic_sim.eval_ints c2 after in
      let t_end = BP.t_finish r +. 1e-12 in
      Array.for_all
        (fun n ->
          let v = Phys.Pwl.value_at (BP.waveform r n) t_end in
          match target.(n) with
          | S.L1 -> v > 0.6
          | S.L0 -> v < 0.6
          | S.X -> true)
        (Netlist.Circuit.outputs c2))

let suite =
  [ Alcotest.test_case "vground empty" `Quick test_vground_empty;
    Alcotest.test_case "vground balance" `Quick test_vground_balance;
    Alcotest.test_case "vground monotonic" `Quick test_vground_monotonic;
    Alcotest.test_case "vground quadratic cross-check" `Quick
      test_vground_quadratic_cross_check;
    Alcotest.test_case "vground body effect" `Quick
      test_vground_body_effect_lowers_current;
    Alcotest.test_case "vground device vs resistor" `Quick
      test_vground_device_vs_resistor;
    Alcotest.test_case "delay model" `Quick test_delay_model;
    Alcotest.test_case "bp cmos tree" `Quick test_bp_cmos_tree;
    Alcotest.test_case "bp mtcmos slower" `Quick
      test_bp_mtcmos_slower_and_bouncy;
    Alcotest.test_case "bp delay vs wl" `Quick test_bp_delay_decreases_with_wl;
    Alcotest.test_case "bp single inverter closed form" `Quick
      test_bp_single_inverter_matches_closed_form;
    Alcotest.test_case "bp no transition" `Quick test_bp_no_transition;
    Alcotest.test_case "bp extreme resistance" `Quick
      test_bp_extreme_resistance;
    Alcotest.test_case "bp tiny sleep device finishes" `Quick
      test_bp_tiny_sleep_device;
    Alcotest.test_case "bp input validation" `Quick test_bp_input_validation;
    Alcotest.test_case "bp packed widths" `Quick test_bp_packed_widths;
    Alcotest.test_case "bp partition range check" `Quick
      test_bp_partition_range_checked;
    Alcotest.test_case "bp partition length check" `Quick
      test_bp_partition_length_checked;
    Alcotest.test_case "bp glitch" `Quick test_bp_glitch_visible;
    Alcotest.test_case "sizing sweep" `Quick test_sizing_sweep_monotone;
    Alcotest.test_case "sizing target" `Quick test_size_for_degradation;
    Alcotest.test_case "sizing guards" `Quick test_sizing_guards;
    Alcotest.test_case "sizing probe cost" `Quick test_size_probe_cost;
    Alcotest.test_case "vector enumeration" `Quick test_vector_enumeration;
    Alcotest.test_case "vector ranking" `Quick test_vector_ranking;
    Alcotest.test_case "vectors involving output" `Quick
      test_vectors_involving_output;
    Alcotest.test_case "estimators" `Quick test_estimators;
    Alcotest.test_case "reverse conduction assess" `Quick
      test_reverse_conduction_assess;
    Prop.to_alcotest prop_vground_bounded;
    Prop.to_alcotest prop_total_current_is_gate_fold;
    Prop.to_alcotest prop_sat_current_is_overdrive_power;
    Prop.to_alcotest prop_bp_delay_monotone_in_wl;
    Prop.to_alcotest prop_size_probe_matches_reference;
    Prop.to_alcotest prop_bp_waveforms_in_rails;
    Prop.to_alcotest prop_bp_final_state_matches_logic ]
