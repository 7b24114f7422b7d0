(* Bit-level pins of every timer and sizer: the first-order STA
   (ungated and gated, under the co-optimizer's own answers), the NLDM
   table timer, the three sleep-device sizers and the breakpoint
   simulator's delays and waveforms.  Each section is reduced to the MD5
   of its %h bit patterns, so a change to the timing core that moves any
   answer by one ulp fails the section that holds it. *)

module C = Netlist.Circuit
module BP = Mtcmos.Breakpoint_sim
module Sta = Mtcmos.Sta
module Sel = Mtcmos.Selective

let tech = Fixtures.tech

let pin section expected floats =
  let bits = String.concat " " (List.map (Printf.sprintf "%h") floats) in
  Alcotest.(check string) section expected (Digest.to_hex (Digest.string bits))

let of_array f a = List.map f (Array.to_list a)

let sta_floats c t =
  let p = Sta.critical_path t in
  List.init (C.num_nets c) (Sta.arrival t)
  @ List.init (C.num_gates c) (Sta.gate_delay t)
  @ (p.Sta.arrival :: List.map float_of_int p.Sta.through)

(* every branch of the gated timer: high-Vt cells, ungated cells,
   device-less clusters and shared (cluster, depth) groups *)
let mixed_gating c =
  let n = C.num_gates c in
  Sel.gating
    ~vt_high:(Array.init n (fun i -> i mod 5 = 0))
    ~cluster_of_gate:
      (Array.init n (fun i -> if i mod 7 = 3 then -1 else i mod 3))
    ~sleep_wl:[| 12.0; 0.0; 40.0 |]

let test_sta () =
  pin "sta" "9ca318e89e68d226d855d8edbdf1a9be"
    (List.concat_map
       (fun c ->
         let gating = mixed_gating c in
         sta_floats c (Sta.analyze c)
         @ sta_floats c (Sta.analyze ~gating c)
         @ sta_floats c (Sta.analyze ~body_effect:false ~gating c))
       [ Fixtures.chain_circuit 8;
         Fixtures.tree_circuit ~stages:3 ~fanout:3 ();
         Fixtures.adder_circuit 4;
         Fixtures.mult_circuit 3;
         Fixtures.kogge_circuit 8;
         Fixtures.random_circuit ~inputs:6 ~gates:60 () ])

let test_select () =
  pin "select" "3b9730eb54745f09627850b8dc13b6d2"
    (List.concat_map
       (fun (c, delay_budget) ->
         List.concat_map
           (fun clusters ->
             let r = Sel.optimize ~clusters c ~delay_budget in
             let gating =
               Sel.gating ~vt_high:r.Sel.vt_high
                 ~cluster_of_gate:r.Sel.cluster_of_gate
                 ~sleep_wl:r.Sel.sleep_wl
             in
             of_array (fun h -> if h then 1.0 else 0.0) r.Sel.vt_high
             @ of_array float_of_int r.Sel.cluster_of_gate
             @ Array.to_list r.Sel.sleep_wl
             @ [ r.Sel.arrival; r.Sel.leakage; r.Sel.objective_value;
                 float_of_int r.Sel.evaluations ]
             @ sta_floats c (Sta.analyze ~gating c))
           [ 1; 3; 4 ])
       [ (Fixtures.adder_circuit 1, 0.1);
         (Fixtures.adder_circuit 4, 0.1);
         (Fixtures.adder_circuit 8, 0.1);
         (Fixtures.kogge_circuit 4, 0.15);
         (Fixtures.kogge_circuit 8, 0.15) ])

(* the 2x2-grid Inv/Nand2 library, with ties and strength-2 cells *)
let test_nldm () =
  let lib = Lazy.force Test_analysis.nldm_lib in
  let nands =
    (Fixtures.nand_chain tech ~length:4).Circuits.Chain.circuit
  in
  pin "nldm" "3ae85d0d7f546d816d2ea77423c5c397"
    (List.concat_map
       (fun (input_slew, c) ->
         let t = Mtcmos.Nldm.sta ?input_slew lib c in
         let net, arrival = t.Mtcmos.Nldm.critical in
         Array.to_list t.Mtcmos.Nldm.arrival
         @ Array.to_list t.Mtcmos.Nldm.slew
         @ [ float_of_int net; arrival ])
       [ (None, Fixtures.chain_circuit ~cl:50e-15 4);
         ( None,
           (Circuits.Inverter_tree.make ~strength:2.0 tech ~stages:2 ~fanout:3)
             .Circuits.Inverter_tree.circuit );
         (None, nands);
         (Some 120e-12, nands) ])

let test_sizers () =
  let c = Fixtures.adder_circuit 3 in
  let vectors = Mtcmos.Vectors.random_pairs ~seed:5 ~widths:[ 3; 3 ] 8 in
  let sleep = (BP.mtcmos_config tech ~wl:10.0).BP.sleep in
  pin "sizers" "31fbe850bb4c6c178b16761fb8637dea"
    (List.map
       (fun target -> Mtcmos.Sizing.size_for_degradation c ~vectors ~target)
       [ 0.02; 0.05; 0.2 ]
    @ List.map
        (fun blocks ->
          Mtcmos.Hierarchy.size_uniform_for_degradation c ~vectors
            ~target:0.05 ~blocks)
        [ 1; 2; 3 ]
    @ [ Sta.mtcmos_underestimate (Sta.analyze c) c ~sleep ~vectors ])

let pwl w = List.concat_map (fun (t, v) -> [ t; v ]) (Phys.Pwl.points w)

let footer wl = BP.mtcmos_config tech ~wl

(* the configs every breakpoint pin runs on circuit [c] *)
let bp_configs c =
  [ BP.default_config;
    footer 8.0;
    Mtcmos.Hierarchy.config tech c ~wl_per_block:6.0 ~blocks:3;
    BP.mtcmos_pmos_config tech ~wl:8.0 ]

(* the configs only the ablations golden reached before: the resistor
   sleep model, another card through [tech_override] (the 0.3 um card,
   and the 0.7 um card at another alpha), and a partition that mixes a
   resistor block with a sleep-FET block *)
let bp_more_configs c =
  let s8 = Device.Sleep.nmos_footer tech ~wl:8.0 in
  let r8 = Device.Sleep.effective_resistance s8 in
  let alpha15 = Device.Tech.with_alpha tech 1.5 in
  [ { BP.default_config with BP.sleep = BP.Resistor r8 };
    { (footer 8.0) with BP.tech_override = Some Fixtures.tech03 };
    { (footer 8.0) with BP.tech_override = Some alpha15 };
    { (BP.mtcmos_pmos_config tech ~wl:8.0) with
      BP.tech_override = Some alpha15;
      body_effect = false };
    { (footer 6.0) with
      BP.partition =
        Some
          { BP.block_of_gate = Array.init (C.num_gates c) (fun i -> i mod 2);
            sleeps = [| BP.Resistor (2.0 *. r8); BP.Sleep_fet s8 |] } } ]

let bp_circuits =
  [ Fixtures.chain_circuit 8;
    Fixtures.tree_circuit ~stages:3 ~fanout:3 ();
    Fixtures.adder_circuit 4;
    Fixtures.mult_circuit 3 ]

(* gates of four strengths, so that two discharging sets of one size
   hold different W/Ls *)
let mixed_strengths c =
  C.with_strengths c (fun g -> 1.0 +. (0.5 *. float_of_int (g.C.id mod 4)))

(* every breakpoint-simulator pin runs [circuits] x the same vectors
   over [configs c]; [floats c r] reduces one simulation *)
let bp_sims ?(configs = bp_configs) ?(circuits = bp_circuits) floats =
  List.concat_map
    (fun c ->
      let widths = [ Array.length (C.inputs c) ] in
      List.concat_map
        (fun config ->
          List.concat_map
            (fun (before, after) ->
              floats c (BP.simulate_ints ~config c ~before ~after))
            (Mtcmos.Vectors.random_pairs ~seed:3 ~widths 12))
        (configs c))
    circuits

let test_breakpoint () =
  pin "breakpoint" "693658d70932a114c640f2622acb6fe0"
    (bp_sims (fun c r ->
         (match BP.critical_delay r with
          | None -> []
          | Some (n, d) -> [ float_of_int n; d ])
         @ [ BP.vx_peak r; BP.peak_discharge_current r ]
         @ pwl (BP.vground_waveform r)
         @ pwl (BP.discharge_current_waveform r)
         @ List.concat_map
             (fun n -> pwl (BP.waveform r n))
             (Array.to_list (C.outputs c))))

(* internal nets too, and the breakpoint count *)
let test_breakpoint_nets () =
  pin "breakpoint nets" "d3a5cc87cf3e46f4fbce61f6cb5d8313"
    (bp_sims (fun c r ->
         float_of_int (BP.events r)
         :: List.concat_map
              (fun n -> pwl (BP.waveform r n))
              (List.init (C.num_nets c) Fun.id)))

(* the same reduction as the two sections above, plus block 0's rail,
   over the configs only the ablations golden reached before and over
   every config on a circuit of mixed gate strengths *)
let test_breakpoint_more () =
  pin "breakpoint: resistor, tech override, mixed partition"
    "23faa626eb099049a938339ad76a4962"
    (bp_sims
       ~configs:(fun c -> bp_configs c @ bp_more_configs c)
       ~circuits:(bp_circuits @ [ mixed_strengths (Fixtures.adder_circuit 4) ])
       (fun c r ->
         (match BP.critical_delay r with
          | None -> []
          | Some (n, d) -> [ float_of_int n; d ])
         @ [ float_of_int (BP.events r); BP.vx_peak r;
             BP.peak_discharge_current r ]
         @ pwl (BP.vground_waveform r)
         @ pwl (BP.vground_waveform_block r 0)
         @ pwl (BP.discharge_current_waveform r)
         @ List.concat_map
             (fun n -> pwl (BP.waveform r n))
             (List.init (C.num_nets c) Fun.id)))

let prop_ungated_is_gated_nothing =
  QCheck.Test.make ~count:40
    ~name:"sta: ungated analyze = gated analyze with nothing gated"
    QCheck.(triple (int_range 1 1000) (int_range 2 8) (int_range 1 80))
    (fun (seed, inputs, gates) ->
      let c = Fixtures.random_circuit ~seed ~inputs ~gates () in
      let n = C.num_gates c in
      let bits t =
        of_array Int64.bits_of_float
          (Array.append
             (Array.init (C.num_nets c) (Sta.arrival t))
             (Array.init n (Sta.gate_delay t)))
      in
      bits (Sta.analyze c)
      = bits
          (Sta.analyze
             ~gating:
               (Sel.gating ~vt_high:(Array.make n false)
                  ~cluster_of_gate:(Array.make n (-1)) ~sleep_wl:[||])
             c))

let suite =
  [ Alcotest.test_case "sta arrivals, ungated and gated" `Quick test_sta;
    Alcotest.test_case "select answers and evaluations" `Quick test_select;
    Alcotest.test_case "nldm arrivals and slews" `Quick test_nldm;
    Alcotest.test_case "sizers on adder3" `Quick test_sizers;
    Alcotest.test_case "breakpoint delays and waveforms" `Quick test_breakpoint;
    Alcotest.test_case "breakpoint: every net and event count" `Quick
      test_breakpoint_nets;
    Alcotest.test_case "breakpoint: resistor, tech override, mixed partition"
      `Quick test_breakpoint_more;
    Prop.to_alcotest prop_ungated_is_gated_nothing ]
