(* Transient-engine tests against closed-form circuits. *)

module T = Netlist.Transistor

let tech = Fixtures.tech

let test_resistor_divider_dc () =
  let b = T.builder () in
  let top = T.node ~name:"top" b in
  let mid = T.node ~name:"mid" b in
  T.add b (T.Vsrc { pos = top; neg = T.ground; wave = Phys.Pwl.constant 2.0 });
  T.add b (T.Res { pos = top; neg = mid; r = 1000.0 });
  T.add b (T.Res { pos = mid; neg = T.ground; r = 3000.0 });
  let eng = Spice.Engine.prepare (T.freeze b) in
  let x = Fixtures.solved (Spice.Engine.dc_r eng) in
  Alcotest.(check (float 1e-6)) "divider" 1.5 (Spice.Engine.voltage eng x mid);
  Alcotest.(check (float 1e-6)) "source node" 2.0
    (Spice.Engine.voltage eng x top)

let rc_netlist () =
  (* source -- R -- node -- C -- gnd, source steps 1 -> 0 at t = 0:
     v(t) = exp (-t / RC) *)
  let b = T.builder () in
  let src = T.node ~name:"src" b in
  let n = T.node ~name:"out" b in
  let r = 1000.0 and c = 1e-12 in
  T.add b
    (T.Vsrc
       { pos = src; neg = T.ground;
         wave = Phys.Pwl.create [ (0.0, 1.0); (1e-15, 0.0) ] });
  T.add b (T.Res { pos = src; neg = n; r });
  T.add b (T.Cap { pos = n; neg = T.ground; c });
  (T.freeze b, n, r *. c)

let test_rc_discharge () =
  let netlist, n, tau = rc_netlist () in
  let eng =
    Spice.Engine.prepare
      ~opts:Spice.Engine.Opts.(with_dt (tau /. 400.0) default)
      netlist
  in
  let res =
    Fixtures.solved (Spice.Engine.transient_r eng ~t_stop:(5.0 *. tau))
  in
  let w = Spice.Engine.waveform res n in
  List.iter
    (fun k ->
      let t = float_of_int k *. tau in
      let expected = exp (-.t /. tau) in
      let got = Phys.Pwl.value_at w t in
      Alcotest.(check (float 0.01))
        (Printf.sprintf "exp decay at %d tau" k)
        expected got)
    [ 1; 2; 3 ]

let test_record_subset () =
  let netlist, n, tau = rc_netlist () in
  let eng =
    Spice.Engine.prepare
      ~opts:
        Spice.Engine.Opts.(
          default |> with_dt (tau /. 50.0)
          |> with_record (Spice.Engine.Nodes [ n ]))
      netlist
  in
  let res = Fixtures.solved (Spice.Engine.transient_r eng ~t_stop:tau) in
  let w = Spice.Engine.waveform res n in
  (try
     ignore (Spice.Engine.waveform res T.ground);
     Alcotest.fail "expected Not_found"
   with Not_found -> ());
  Alcotest.(check bool) "every step recorded" true
    (List.length (Phys.Pwl.points w) >= 51);
  Alcotest.(check bool) "newton iterations counted" true
    (Spice.Engine.newton_iterations res > 0)

let inverter_netlist ~wl_n ~wl_p ~cl ~vin_wave =
  let b = T.builder () in
  let vdd = T.node ~name:"vdd" b in
  let vin = T.node ~name:"vin" b in
  let vout = T.node ~name:"vout" b in
  T.add b (T.Vsrc { pos = vdd; neg = T.ground; wave = Phys.Pwl.constant 1.2 });
  T.add b (T.Vsrc { pos = vin; neg = T.ground; wave = vin_wave });
  T.add b
    (T.Mos
       { params = tech.Device.Tech.nmos; wl = wl_n; drain = vout; gate = vin;
         source = T.ground; body = T.ground });
  T.add b
    (T.Mos
       { params = tech.Device.Tech.pmos; wl = wl_p; drain = vout; gate = vin;
         source = vdd; body = vdd });
  T.add b (T.Cap { pos = vout; neg = T.ground; c = cl });
  (T.freeze b, vout)

let test_inverter_dc_levels () =
  (* input low -> output at vdd; input high -> output at 0 *)
  let netlist, vout =
    inverter_netlist ~wl_n:2.0 ~wl_p:4.0 ~cl:10e-15
      ~vin_wave:(Phys.Pwl.constant 0.0)
  in
  let eng = Spice.Engine.prepare netlist in
  let x = Fixtures.solved (Spice.Engine.dc_r eng) in
  Alcotest.(check (float 0.01)) "out high" 1.2
    (Spice.Engine.voltage eng x vout);
  let netlist, vout =
    inverter_netlist ~wl_n:2.0 ~wl_p:4.0 ~cl:10e-15
      ~vin_wave:(Phys.Pwl.constant 1.2)
  in
  let eng = Spice.Engine.prepare netlist in
  let x = Fixtures.solved (Spice.Engine.dc_r eng) in
  Alcotest.(check (float 0.01)) "out low" 0.0
    (Spice.Engine.voltage eng x vout)

let inverter_fall_delay ~cl =
  let edge = Phys.Pwl.create [ (0.0, 0.0); (50e-12, 0.0); (60e-12, 1.2) ] in
  let netlist, vout = inverter_netlist ~wl_n:2.0 ~wl_p:4.0 ~cl ~vin_wave:edge in
  let eng =
    Spice.Engine.prepare ~opts:Spice.Engine.Opts.(with_dt 1e-12 default) netlist
  in
  let res = Fixtures.solved (Spice.Engine.transient_r eng ~t_stop:2e-9) in
  let w = Spice.Engine.waveform res vout in
  match
    Spice.Measure.propagation_delay ~vin:edge ~vout:w ~vdd:1.2
      ~in_rising:true ~out_rising:false
  with
  | Some d -> d
  | None -> Alcotest.fail "no output transition"

let test_inverter_delay_scales_with_load () =
  let d1 = inverter_fall_delay ~cl:20e-15 in
  let d2 = inverter_fall_delay ~cl:40e-15 in
  Alcotest.(check bool) "positive delay" true (d1 > 0.0);
  (* doubling CL roughly doubles delay *)
  Alcotest.(check bool) "delay ~ CL" true (d2 /. d1 > 1.6 && d2 /. d1 < 2.4)

let test_inverter_matches_alpha_model () =
  (* first-order model: t_pd = CL Vdd / (2 I_sat) *)
  let cl = 50e-15 in
  let d_sim = inverter_fall_delay ~cl in
  let d_model =
    Mtcmos.Delay_model.cmos_gate_delay (Mtcmos.Delay_model.of_tech tech)
      ~beta_wl:2.0 ~cl
  in
  let ratio = d_sim /. d_model in
  Alcotest.(check bool)
    (Printf.sprintf "model within 2.5x of sim (ratio %.2f)" ratio)
    true
    (ratio > 0.4 && ratio < 2.5)

let test_measure_helpers () =
  let w = Phys.Pwl.create [ (0.0, 0.0); (1e-9, 1.2); (2e-9, 0.3) ] in
  (match
     Phys.Pwl.first_crossing w ~level:0.6 ~rising:true ~after:0.0
   with
   | Some t -> Alcotest.(check (float 1e-11)) "crossing" 0.5e-9 t
   | None -> Alcotest.fail "no crossing")

let test_no_convergence_reported () =
  Alcotest.check_raises "bad t_stop"
    (Invalid_argument "Engine.transient: t_stop <= 0") (fun () ->
      let netlist, _, _ = rc_netlist () in
      let eng = Spice.Engine.prepare netlist in
      ignore (Spice.Engine.transient_r eng ~t_stop:0.0))

let suite =
  [ Alcotest.test_case "resistor divider dc" `Quick test_resistor_divider_dc;
    Alcotest.test_case "rc discharge" `Quick test_rc_discharge;
    Alcotest.test_case "record subset" `Quick test_record_subset;
    Alcotest.test_case "inverter dc levels" `Quick test_inverter_dc_levels;
    Alcotest.test_case "inverter delay vs load" `Quick
      test_inverter_delay_scales_with_load;
    Alcotest.test_case "inverter vs alpha model" `Quick
      test_inverter_matches_alpha_model;
    Alcotest.test_case "measure helpers" `Quick test_measure_helpers;
    Alcotest.test_case "transient arg validation" `Quick
      test_no_convergence_reported ]
