(* Device model tests: Level-1 MOSFET, alpha-power law, leakage, sleep
   transistor. *)

let tech = Fixtures.tech
let nmos = tech.Device.Tech.nmos
let pmos = tech.Device.Tech.pmos
let high_vt = tech.Device.Tech.sleep_nmos

let bias vgs vds vbs = { Device.Mosfet.vgs; vds; vbs }

let test_regions () =
  (* off *)
  let off = Device.Mosfet.eval nmos ~wl:1.0 (bias 0.0 1.0 0.0) in
  Alcotest.(check bool) "off current tiny" true
    (off.Device.Mosfet.ids < 1e-6);
  (* saturation: vds > vov *)
  let sat = Device.Mosfet.eval nmos ~wl:1.0 (bias 1.2 1.2 0.0) in
  let vov = 1.2 -. nmos.Device.Mosfet.vt0 in
  let expect = 0.5 *. nmos.Device.Mosfet.kp *. vov *. vov in
  Alcotest.(check bool) "sat current near square law" true
    (Float.abs (sat.Device.Mosfet.ids -. expect) /. expect < 0.1);
  (* triode < saturation *)
  let tri = Device.Mosfet.eval nmos ~wl:1.0 (bias 1.2 0.1 0.0) in
  Alcotest.(check bool) "triode below sat" true
    (tri.Device.Mosfet.ids < sat.Device.Mosfet.ids);
  Alcotest.(check bool) "all conductances finite" true
    (List.for_all Float.is_finite
       [ sat.Device.Mosfet.gm; sat.Device.Mosfet.gds; sat.Device.Mosfet.gmb ])

let test_region_continuity () =
  (* current is continuous across the triode/saturation boundary *)
  let vov = 1.2 -. nmos.Device.Mosfet.vt0 in
  let below = Device.Mosfet.ids nmos ~wl:1.0 (bias 1.2 (vov -. 1e-7) 0.0) in
  let above = Device.Mosfet.ids nmos ~wl:1.0 (bias 1.2 (vov +. 1e-7) 0.0) in
  Alcotest.(check bool) "triode/sat continuity" true
    (Float.abs (below -. above) /. above < 1e-3);
  (* and across vds = 0 *)
  let neg = Device.Mosfet.ids nmos ~wl:1.0 (bias 1.2 (-1e-7) 0.0) in
  let pos = Device.Mosfet.ids nmos ~wl:1.0 (bias 1.2 1e-7 0.0) in
  Alcotest.(check bool) "vds=0 continuity" true (Float.abs (neg -. pos) < 1e-7)

let test_reverse_symmetry () =
  (* ids(vds) = -ids with terminals swapped: exercised by the
     reverse-conduction paths of the paper's §2.3 *)
  let fwd = Device.Mosfet.ids nmos ~wl:2.0 (bias 1.2 0.3 0.0) in
  let rev = Device.Mosfet.ids nmos ~wl:2.0 (bias (1.2 -. 0.3) (-0.3) (-0.3)) in
  Alcotest.(check (float 1e-9)) "source/drain symmetry" fwd (-.rev);
  Alcotest.(check bool) "reverse current negative" true (rev < 0.0)

let test_body_effect () =
  let vth vbs = (Device.Mosfet.eval nmos ~wl:1.0 (bias 1.2 1.2 vbs)).Device.Mosfet.vth in
  let vth0 = vth 0.0 and vth_rev = vth (-0.3) in
  Alcotest.(check (float 1e-9)) "zero-bias threshold"
    nmos.Device.Mosfet.vt0 vth0;
  Alcotest.(check bool) "reverse body bias raises vth" true (vth_rev > vth0);
  (* source bounce reduces current twice over: smaller vgs and higher vth *)
  let i0 = Device.Mosfet.ids nmos ~wl:1.0 (bias 1.2 1.2 0.0) in
  let i_bounce = Device.Mosfet.ids nmos ~wl:1.0 (bias 0.9 0.9 (-0.3)) in
  Alcotest.(check bool) "bounce reduces current" true (i_bounce < i0)

let test_pmos () =
  (* a PMOS conducts with negative vgs/vds, current flows source->drain *)
  let on = Device.Mosfet.eval pmos ~wl:1.0 (bias (-1.2) (-1.2) 0.0) in
  Alcotest.(check bool) "pmos on, negative ids" true
    (on.Device.Mosfet.ids < -1e-6);
  let off = Device.Mosfet.eval pmos ~wl:1.0 (bias 0.0 (-1.2) 0.0) in
  Alcotest.(check bool) "pmos off" true
    (Float.abs off.Device.Mosfet.ids < 1e-6)

let test_wl_scaling () =
  let i1 = Device.Mosfet.ids nmos ~wl:1.0 (bias 1.2 1.2 0.0) in
  let i4 = Device.Mosfet.ids nmos ~wl:4.0 (bias 1.2 1.2 0.0) in
  Alcotest.(check (float 1e-9)) "current scales with wl" (4.0 *. i1) i4

let test_alpha_power () =
  let ap = Device.Tech.nmos_alpha tech in
  let i = Device.Alpha_power.sat_current ap ~wl:1.0 ~vgs:1.2 ~vsb:0.0 in
  Alcotest.(check bool) "alpha current positive" true (i > 0.0);
  (* alpha = 2 recovers the square law exactly *)
  let ap2 = Device.Alpha_power.of_level1 nmos ~alpha:2.0 in
  let isq = Device.Alpha_power.sat_current ap2 ~wl:3.0 ~vgs:1.2 ~vsb:0.0 in
  let lvl1 = Device.Mosfet.saturation_current nmos ~wl:3.0 ~vgs:1.2 ~vbs:0.0 in
  Alcotest.(check (float 1e-12)) "alpha=2 matches level1" lvl1 isq;
  (* off below threshold *)
  Alcotest.(check (float 1e-15)) "off" 0.0
    (Device.Alpha_power.sat_current ap ~wl:1.0 ~vgs:0.2 ~vsb:0.0);
  (* body effect raises the threshold *)
  Alcotest.(check bool) "alpha body effect" true
    (Device.Alpha_power.sat_current ap ~wl:1.0 ~vgs:1.2 ~vsb:0.4
     < Device.Alpha_power.sat_current ap ~wl:1.0 ~vgs:1.2 ~vsb:0.0);
  (* drive, hence Eq. 3 delay, scales linearly with wl *)
  let i1 = Device.Alpha_power.sat_current ap ~wl:1.0 ~vgs:1.2 ~vsb:0.0 in
  let i2 = Device.Alpha_power.sat_current ap ~wl:2.0 ~vgs:1.2 ~vsb:0.0 in
  Alcotest.(check bool) "current doubles with wl" true
    (Float.abs ((i2 /. i1) -. 2.0) < 1e-6);
  Alcotest.check_raises "alpha out of range"
    (Invalid_argument "Alpha_power.of_level1: alpha must be in (1, 2]")
    (fun () -> ignore (Device.Alpha_power.of_level1 nmos ~alpha:2.5))

let test_leakage () =
  let i_low = Device.Leakage.off_current nmos ~wl:10.0 ~vdd:1.2 in
  let i_high = Device.Leakage.off_current high_vt ~wl:10.0 ~vdd:1.2 in
  Alcotest.(check bool) "leakage positive" true (i_low > 0.0);
  Alcotest.(check bool) "high-vt leaks orders less" true
    (i_high < i_low /. 100.0);
  let conv, mt =
    Device.Leakage.standby_comparison ~low_vt:nmos ~high_vt
      ~total_width_wl:100.0 ~sleep_wl:10.0 ~vdd:1.2
  in
  Alcotest.(check bool) "mtcmos standby much lower" true (mt < conv /. 50.0);
  Alcotest.(check bool) "standby currents positive" true
    (mt > 0.0 && conv > 0.0)

let test_sleep () =
  let s = Device.Sleep.make high_vt ~wl:10.0 ~vdd:1.2 in
  let r = Device.Sleep.effective_resistance s in
  Alcotest.(check bool) "resistance positive" true (r > 0.0);
  (* bigger device, lower resistance *)
  let s2 = Device.Sleep.make high_vt ~wl:20.0 ~vdd:1.2 in
  Alcotest.(check (float 1e-9)) "resistance halves"
    (r /. 2.0)
    (Device.Sleep.effective_resistance s2);
  (* i/v roundtrip in the linear region *)
  let i = Device.Sleep.current_at_vds s 0.02 in
  Alcotest.(check (float 1e-6)) "vds roundtrip" 0.02
    (Device.Sleep.vds_at_current s i);
  (* linear approximation holds at small vds *)
  Alcotest.(check bool) "ohmic approx" true
    (Float.abs ((0.02 /. i) -. r) /. r < 0.05);
  (* saturated when asked for more than the device can carry *)
  let i_sat =
    Device.Mosfet.saturation_current high_vt ~wl:10.0 ~vgs:1.2 ~vbs:0.0
  in
  Alcotest.(check (float 1e-12)) "starved returns vdd" 1.2
    (Device.Sleep.vds_at_current s (2.0 *. i_sat));
  (* sizing from a resistance target *)
  let wl = Device.Sleep.wl_for_resistance high_vt ~vdd:1.2 ~r in
  Alcotest.(check (float 1e-6)) "wl_for_resistance inverts" 10.0 wl;
  Alcotest.(check bool) "area grows with wl" true
    (Device.Sleep.area_cost s2 ~lmin:0.7e-6 > Device.Sleep.area_cost s ~lmin:0.7e-6);
  Alcotest.(check bool) "switching energy grows with wl" true
    (Device.Sleep.switching_energy s2 ~cg_per_wl:1e-15
     > Device.Sleep.switching_energy s ~cg_per_wl:1e-15);
  Alcotest.check_raises "cannot turn on"
    (Invalid_argument "Sleep.make: sleep device cannot turn on at this vdd")
    (fun () -> ignore (Device.Sleep.make high_vt ~wl:1.0 ~vdd:0.5))

let test_tech_cards () =
  Alcotest.(check (float 1e-9)) "0.7um vdd" 1.2 tech.Device.Tech.vdd;
  Alcotest.(check (float 1e-9)) "0.7um vtn" 0.35
    tech.Device.Tech.nmos.Device.Mosfet.vt0;
  Alcotest.(check (float 1e-9)) "0.7um vt_high" 0.75
    tech.Device.Tech.sleep_nmos.Device.Mosfet.vt0;
  let t3 = Device.Tech.mtcmos_03um in
  Alcotest.(check (float 1e-9)) "0.3um vdd" 1.0 t3.Device.Tech.vdd;
  Alcotest.(check (float 1e-9)) "0.3um vtn" 0.2
    t3.Device.Tech.nmos.Device.Mosfet.vt0;
  Alcotest.(check (float 1e-9)) "0.3um vt_high" 0.7
    t3.Device.Tech.sleep_nmos.Device.Mosfet.vt0;
  let t18 = Device.Tech.mtcmos_018um in
  Alcotest.(check (float 1e-9)) "0.18um vdd" 0.9 t18.Device.Tech.vdd;
  Alcotest.(check bool) "0.18um sleep overdrive shrinks with scaling" true
    (t18.Device.Tech.vdd -. t18.Device.Tech.sleep_nmos.Device.Mosfet.vt0
     < t3.Device.Tech.vdd -. t3.Device.Tech.sleep_nmos.Device.Mosfet.vt0);
  let lowered = Device.Tech.with_vdd tech 0.9 in
  Alcotest.(check (float 1e-9)) "with_vdd" 0.9 lowered.Device.Tech.vdd;
  let shifted = Device.Tech.with_vt_shift tech 0.1 in
  Alcotest.(check (float 1e-9)) "with_vt_shift" 0.45
    shifted.Device.Tech.nmos.Device.Mosfet.vt0;
  let re_alpha = Device.Tech.with_alpha tech 1.5 in
  Alcotest.(check (float 1e-9)) "with_alpha" 1.5 re_alpha.Device.Tech.alpha

let prop_monotone_in_vgs =
  QCheck.Test.make ~count:200 ~name:"mosfet: ids monotone in vgs"
    QCheck.(pair (float_range 0.0 1.1) (float_range 0.0 1.2))
    (fun (vgs, vds) ->
      let i1 = Device.Mosfet.ids nmos ~wl:1.0 (bias vgs vds 0.0) in
      let i2 = Device.Mosfet.ids nmos ~wl:1.0 (bias (vgs +. 0.1) vds 0.0) in
      i2 >= i1 -. 1e-15)

let prop_monotone_in_vds =
  QCheck.Test.make ~count:200 ~name:"mosfet: ids monotone in vds >= 0"
    QCheck.(pair (float_range 0.4 1.2) (float_range 0.0 1.0))
    (fun (vgs, vds) ->
      let i1 = Device.Mosfet.ids nmos ~wl:1.0 (bias vgs vds 0.0) in
      let i2 = Device.Mosfet.ids nmos ~wl:1.0 (bias vgs (vds +. 0.2) 0.0) in
      i2 >= i1 -. 1e-15)

let prop_gm_matches_fd =
  QCheck.Test.make ~count:200 ~name:"mosfet: gm matches finite difference"
    QCheck.(pair (float_range 0.5 1.2) (float_range 0.05 1.2))
    (fun (vgs, vds) ->
      (* keep away from the region boundary where gm jumps *)
      let vov = vgs -. nmos.Device.Mosfet.vt0 in
      QCheck.assume (Float.abs (vds -. vov) > 0.02);
      let h = 1e-6 in
      let op = Device.Mosfet.eval nmos ~wl:1.0 (bias vgs vds 0.0) in
      let ip = Device.Mosfet.ids nmos ~wl:1.0 (bias (vgs +. h) vds 0.0) in
      let im = Device.Mosfet.ids nmos ~wl:1.0 (bias (vgs -. h) vds 0.0) in
      let fd = (ip -. im) /. (2.0 *. h) in
      Float.abs (op.Device.Mosfet.gm -. fd)
      <= 1e-3 *. (Float.abs fd +. 1e-9))

let suite =
  [ Alcotest.test_case "operating regions" `Quick test_regions;
    Alcotest.test_case "region continuity" `Quick test_region_continuity;
    Alcotest.test_case "reverse symmetry" `Quick test_reverse_symmetry;
    Alcotest.test_case "body effect" `Quick test_body_effect;
    Alcotest.test_case "pmos" `Quick test_pmos;
    Alcotest.test_case "wl scaling" `Quick test_wl_scaling;
    Alcotest.test_case "alpha-power law" `Quick test_alpha_power;
    Alcotest.test_case "leakage" `Quick test_leakage;
    Alcotest.test_case "sleep transistor" `Quick test_sleep;
    Alcotest.test_case "technology cards" `Quick test_tech_cards;
    Prop.to_alcotest prop_monotone_in_vgs;
    Prop.to_alcotest prop_monotone_in_vds;
    Prop.to_alcotest prop_gm_matches_fd ]
