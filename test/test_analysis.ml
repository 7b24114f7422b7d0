(* Tests for the analysis modules: worst-vector search, lint, variation,
   random-logic fuzzing, tables. *)

module BP = Mtcmos.Breakpoint_sim
module S = Netlist.Signal

let tech = Fixtures.tech

let sleep wl = BP.Sleep_fet (Device.Sleep.nmos_footer tech ~wl)

(* ---- search --------------------------------------------------------------- *)

let test_search_matches_exhaustive_small () =
  (* on the 2-bit adder the climb must land close to the true worst *)
  let add = Fixtures.adder 2 in
  let c = add.Circuits.Ripple_adder.circuit in
  let sl = sleep 8.0 in
  let truth =
    Mtcmos.Search.exhaustive c ~sleep:sl ~widths:[ 2; 2 ]
      Mtcmos.Search.Max_delay
  in
  let found =
    Mtcmos.Search.hill_climb ~seed:3 ~restarts:6 c ~sleep:sl
      ~widths:[ 2; 2 ] Mtcmos.Search.Max_delay
  in
  Alcotest.(check bool)
    (Printf.sprintf "climb %.3g vs truth %.3g" found.Mtcmos.Search.score
       truth.Mtcmos.Search.score)
    true
    (found.Mtcmos.Search.score >= 0.9 *. truth.Mtcmos.Search.score);
  Alcotest.(check bool) "climb is cheaper than enumeration" true
    (found.Mtcmos.Search.evaluations < truth.Mtcmos.Search.evaluations * 4)

let test_search_objectives () =
  let add = Fixtures.adder 2 in
  let c = add.Circuits.Ripple_adder.circuit in
  let sl = sleep 8.0 in
  List.iter
    (fun obj ->
      let o =
        Mtcmos.Search.hill_climb ~seed:5 ~restarts:2 ~max_iters:100 c
          ~sleep:sl ~widths:[ 2; 2 ] obj
      in
      Alcotest.(check bool) "positive score found" true
        (o.Mtcmos.Search.score > 0.0))
    [ Mtcmos.Search.Max_degradation; Mtcmos.Search.Max_delay;
      Mtcmos.Search.Max_vx; Mtcmos.Search.Max_current ]

let test_search_deterministic () =
  let add = Fixtures.adder 2 in
  let c = add.Circuits.Ripple_adder.circuit in
  let sl = sleep 8.0 in
  let run () =
    Mtcmos.Search.hill_climb ~seed:11 ~restarts:2 ~max_iters:60 c ~sleep:sl
      ~widths:[ 2; 2 ] Mtcmos.Search.Max_vx
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same pair" true
    (a.Mtcmos.Search.pair = b.Mtcmos.Search.pair);
  Alcotest.(check (float 1e-15)) "same score" a.Mtcmos.Search.score
    b.Mtcmos.Search.score

let test_search_finds_multiplier_hotspot () =
  (* on the 8x8 multiplier the climb should reach at least vector B's
     degradation level at W/L = 60 (ideally towards vector A's) *)
  let t03 = Device.Tech.mtcmos_03um in
  let m = Fixtures.mult ~tech:t03 8 in
  let c = m.Circuits.Csa_multiplier.circuit in
  let sl = BP.Sleep_fet (Device.Sleep.nmos_footer t03 ~wl:60.0) in
  let found =
    Mtcmos.Search.hill_climb ~seed:2 ~restarts:3 ~max_iters:250 c ~sleep:sl
      ~widths:[ 8; 8 ] Mtcmos.Search.Max_degradation
  in
  Alcotest.(check bool)
    (Printf.sprintf "found %.1f%% degradation (vector B gives ~5%%)"
       (100.0 *. found.Mtcmos.Search.score))
    true
    (found.Mtcmos.Search.score > 0.05)

(* ---- lint ------------------------------------------------------------------- *)

let test_lint_clean_circuit () =
  let add = Fixtures.adder 3 in
  let findings = Mtcmos.Lint.check add.Circuits.Ripple_adder.circuit in
  (* the adder is well-formed: no warnings beyond possible hotspot info *)
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Format.asprintf "unexpected: %a" Mtcmos.Lint.pp_finding f)
        true
        (f.Mtcmos.Lint.rule = "discharge-hotspot"))
    findings

let test_lint_weak_driver () =
  let b = Netlist.Circuit.builder tech in
  let a = Netlist.Circuit.add_input b in
  let o = Netlist.Circuit.add_gate b Netlist.Gate.Inv [ a ] in
  Netlist.Circuit.add_load b o 2e-12; (* 2 pF on a unit inverter *)
  Netlist.Circuit.mark_output b o;
  let c = Netlist.Circuit.freeze b in
  let findings = Mtcmos.Lint.check c in
  Alcotest.(check bool) "weak-driver flagged" true
    (List.exists (fun f -> f.Mtcmos.Lint.rule = "weak-driver") findings)

let test_lint_dangling_and_unused () =
  let b = Netlist.Circuit.builder tech in
  let a = Netlist.Circuit.add_input b in
  let unused = Netlist.Circuit.add_input b in
  ignore unused;
  let o1 = Netlist.Circuit.add_gate b Netlist.Gate.Inv [ a ] in
  let dangling = Netlist.Circuit.add_gate b Netlist.Gate.Inv [ a ] in
  ignore dangling;
  Netlist.Circuit.mark_output b o1;
  let c = Netlist.Circuit.freeze b in
  let findings = Mtcmos.Lint.check c in
  let has rule = List.exists (fun f -> f.Mtcmos.Lint.rule = rule) findings in
  Alcotest.(check bool) "dangling-output" true (has "dangling-output");
  Alcotest.(check bool) "unused-input" true (has "unused-input")

let test_lint_hotspot () =
  (* the inverter tree IS a discharge hotspot by construction *)
  let tree = Fixtures.tree ~stages:3 ~fanout:3 () in
  let findings =
    Mtcmos.Lint.check ~hotspot_fraction:0.4
      tree.Circuits.Inverter_tree.circuit
  in
  Alcotest.(check bool) "hotspot flagged" true
    (List.exists
       (fun f -> f.Mtcmos.Lint.rule = "discharge-hotspot")
       findings)

(* ---- variation ------------------------------------------------------------------ *)

let test_variation_monte_carlo () =
  let add = Fixtures.adder 2 in
  let c = add.Circuits.Ripple_adder.circuit in
  let vector = ([ (2, 0); (2, 1) ], [ (2, 3); (2, 2) ]) in
  let stats = Mtcmos.Variation.monte_carlo ~n:40 c ~wl:8.0 ~vector in
  Alcotest.(check int) "sample count" 40
    (Array.length stats.Mtcmos.Variation.samples);
  let s = stats.Mtcmos.Variation.delay_summary in
  Alcotest.(check bool) "delays positive" true (s.Phys.Stats.min > 0.0);
  Alcotest.(check bool) "spread exists" true (s.Phys.Stats.stddev > 0.0);
  Alcotest.(check bool) "p95 degradation above mean degradation" true
    (stats.Mtcmos.Variation.degradation_p95 > 0.0);
  (* deterministic given the seed *)
  let again = Mtcmos.Variation.monte_carlo ~n:40 c ~wl:8.0 ~vector in
  Alcotest.(check (float 1e-15)) "deterministic" s.Phys.Stats.mean
    again.Mtcmos.Variation.delay_summary.Phys.Stats.mean

let test_variation_slow_corner_slower () =
  (* raising vt and cutting kp must slow every sample: check the
     correlation direction on the samples themselves *)
  let add = Fixtures.adder 2 in
  let c = add.Circuits.Ripple_adder.circuit in
  let vector = ([ (2, 0); (2, 0) ], [ (2, 3); (2, 3) ]) in
  let stats =
    Mtcmos.Variation.monte_carlo ~n:60 c ~wl:8.0 ~vector
  in
  let dvts =
    Array.map (fun s -> s.Mtcmos.Variation.dvt)
      stats.Mtcmos.Variation.samples
  in
  let delays =
    Array.map (fun s -> s.Mtcmos.Variation.delay)
      stats.Mtcmos.Variation.samples
  in
  let rho = Phys.Stats.correlation dvts delays in
  Alcotest.(check bool)
    (Printf.sprintf "higher vt, longer delay (rho = %.2f)" rho)
    true (rho > 0.5)

(* ---- random logic fuzzing --------------------------------------------------------- *)

let test_random_logic_structure () =
  let r = Circuits.Random_logic.make ~seed:42 tech ~inputs:5 ~gates:30 in
  let c = r.Circuits.Random_logic.circuit in
  Alcotest.(check int) "inputs" 5 (Array.length (Netlist.Circuit.inputs c));
  Alcotest.(check int) "gates" 30 (Netlist.Circuit.num_gates c);
  Alcotest.(check bool) "has outputs" true
    (Array.length (Netlist.Circuit.outputs c) > 0);
  (* deterministic per seed *)
  let r2 = Circuits.Random_logic.make ~seed:42 tech ~inputs:5 ~gates:30 in
  Alcotest.(check int) "same structure" (Netlist.Circuit.num_nets c)
    (Netlist.Circuit.num_nets r2.Circuits.Random_logic.circuit)

let prop_random_circuits_settle_to_logic =
  QCheck.Test.make ~count:40
    ~name:"fuzz: breakpoint sim settles random DAGs to the logic state"
    QCheck.(pair (int_bound 1000) (pair (int_bound 255) (int_bound 255)))
    (fun (seed, (v0, v1)) ->
      let r = Circuits.Random_logic.make ~seed tech ~inputs:6 ~gates:25 in
      let c = r.Circuits.Random_logic.circuit in
      let v0 = v0 land 63 and v1 = v1 land 63 in
      let cfg = BP.mtcmos_config tech ~wl:15.0 in
      let res =
        BP.simulate_ints ~config:cfg c ~before:[ (6, v0) ] ~after:[ (6, v1) ]
      in
      let target = Netlist.Logic_sim.eval_ints c [ (6, v1) ] in
      let t_end = BP.t_finish res +. 1e-12 in
      Array.for_all
        (fun n ->
          let v = Phys.Pwl.value_at (BP.waveform res n) t_end in
          match target.(n) with
          | S.L1 -> v > 0.6
          | S.L0 -> v < 0.6
          | S.X -> true)
        (Netlist.Circuit.outputs c))

let prop_random_circuits_monotone_in_wl =
  QCheck.Test.make ~count:25
    ~name:"fuzz: random DAG delay decreases with sleep size"
    QCheck.(int_bound 1000)
    (fun seed ->
      let r = Circuits.Random_logic.make ~seed tech ~inputs:5 ~gates:20 in
      let c = r.Circuits.Random_logic.circuit in
      let d wl =
        let cfg = BP.mtcmos_config tech ~wl in
        let res =
          BP.simulate_ints ~config:cfg c ~before:[ (5, 0) ]
            ~after:[ (5, 31) ]
        in
        match BP.critical_delay res with
        | Some (_, d) -> d
        | None -> 0.0
      in
      d 5.0 >= d 50.0 -. 1e-15)

(* ---- sequence driver -------------------------------------------------------- *)

let test_sequence_basic () =
  let add = Fixtures.adder 2 in
  let c = add.Circuits.Ripple_adder.circuit in
  let cfg = BP.mtcmos_config tech ~wl:10.0 in
  let vectors =
    [ [ (2, 0); (2, 0) ]; [ (2, 3); (2, 1) ]; [ (2, 1); (2, 2) ];
      [ (2, 1); (2, 2) ]; [ (2, 0); (2, 3) ] ]
  in
  let r = Mtcmos.Sequence.run ~config:cfg c ~period:5e-9 ~vectors in
  Alcotest.(check int) "one step per transition" 4
    (List.length r.Mtcmos.Sequence.steps);
  Alcotest.(check int) "generous period, no violations" 0
    r.Mtcmos.Sequence.violations;
  (match r.Mtcmos.Sequence.worst_delay with
   | Some (_, d) -> Alcotest.(check bool) "worst delay positive" true (d > 0.0)
   | None -> Alcotest.fail "no delays recorded");
  (* the idle cycle (same vector twice) records no delay *)
  let idle = List.nth r.Mtcmos.Sequence.steps 2 in
  Alcotest.(check bool) "idle cycle has no delay" true
    (idle.Mtcmos.Sequence.delay = None);
  Alcotest.(check bool) "rail bounced somewhere" true
    (r.Mtcmos.Sequence.worst_vx > 0.0)

let test_sequence_violations () =
  let add = Fixtures.adder 2 in
  let c = add.Circuits.Ripple_adder.circuit in
  (* a tiny sleep device plus a tight period must violate *)
  let cfg = BP.mtcmos_config tech ~wl:1.0 in
  let vectors = [ [ (2, 0); (2, 0) ]; [ (2, 3); (2, 3) ] ] in
  let r = Mtcmos.Sequence.run ~config:cfg c ~period:300e-12 ~vectors in
  Alcotest.(check int) "violation flagged" 1 r.Mtcmos.Sequence.violations

let test_sequence_random_workload () =
  let w = Mtcmos.Sequence.random_workload ~widths:[ 2; 2 ] 10 in
  Alcotest.(check int) "cycles" 10 (List.length w);
  let w2 = Mtcmos.Sequence.random_workload ~widths:[ 2; 2 ] 10 in
  Alcotest.(check bool) "deterministic" true (w = w2);
  Alcotest.check_raises "too short"
    (Invalid_argument "Sequence.run: need at least two vectors") (fun () ->
      let add = Fixtures.adder 2 in
      ignore
        (Mtcmos.Sequence.run add.Circuits.Ripple_adder.circuit
           ~period:1e-9 ~vectors:[ [ (2, 0); (2, 0) ] ]))

(* ---- resize ------------------------------------------------------------------ *)

let test_resize_fixes_weak_driver () =
  let b = Netlist.Circuit.builder tech in
  let a = Netlist.Circuit.add_input b in
  let o = Netlist.Circuit.add_gate b Netlist.Gate.Inv [ a ] in
  Netlist.Circuit.add_load b o 1e-12;
  Netlist.Circuit.mark_output b o;
  let c = Netlist.Circuit.freeze b in
  Alcotest.(check bool) "initially flagged" true
    (List.exists
       (fun f -> f.Mtcmos.Lint.rule = "weak-driver")
       (Mtcmos.Lint.check c));
  let rep = Mtcmos.Resize.fix_weak_drivers c in
  Alcotest.(check bool) "repaired circuit is clean" false
    (List.exists
       (fun f -> f.Mtcmos.Lint.rule = "weak-driver")
       (Mtcmos.Lint.check rep.Mtcmos.Resize.circuit));
  Alcotest.(check int) "one gate touched" 1
    (List.length rep.Mtcmos.Resize.upsized);
  (* the repaired gate got strictly stronger *)
  (match rep.Mtcmos.Resize.upsized with
   | [ (_, s) ] -> Alcotest.(check bool) "stronger" true (s > 1.0)
   | _ -> Alcotest.fail "unexpected upsizing record");
  (* the repair is also faster *)
  let d0 =
    (Mtcmos.Sta.critical_path (Mtcmos.Sta.analyze c)).Mtcmos.Sta.arrival
  in
  let d1 =
    (Mtcmos.Sta.critical_path
       (Mtcmos.Sta.analyze rep.Mtcmos.Resize.circuit))
      .Mtcmos.Sta.arrival
  in
  Alcotest.(check bool) "faster after resize" true (d1 < d0)

let test_resize_clean_circuit_untouched () =
  let add = Fixtures.adder 3 in
  let rep = Mtcmos.Resize.fix_weak_drivers add.Circuits.Ripple_adder.circuit in
  Alcotest.(check int) "nothing to do" 0
    (List.length rep.Mtcmos.Resize.upsized);
  Alcotest.(check int) "zero iterations" 0 rep.Mtcmos.Resize.iterations

let test_with_strengths () =
  let ch = Fixtures.chain 3 in
  let c = ch.Circuits.Chain.circuit in
  let c2 = Netlist.Circuit.with_strengths c (fun _ -> 3.0) in
  Array.iter
    (fun (g : Netlist.Circuit.gate_inst) ->
      Alcotest.(check (float 1e-12)) "strength set" 3.0
        g.Netlist.Circuit.strength)
    (Netlist.Circuit.gates c2);
  (* receivers got heavier: interior nets carry more load *)
  let mid = ch.Circuits.Chain.taps.(0) in
  Alcotest.(check bool) "loads recomputed upward" true
    (Netlist.Circuit.load_capacitance c2 mid
     > Netlist.Circuit.load_capacitance c mid);
  (* logic is untouched *)
  let st = Netlist.Logic_sim.eval c2 [| S.L1 |] in
  Alcotest.(check char) "logic preserved" '0'
    (S.to_char st.(ch.Circuits.Chain.taps.(2)))

(* ---- NLDM ---------------------------------------------------------------------- *)

let nldm_lib =
  lazy
    (Mtcmos.Nldm.characterize ~loads:[ 15e-15; 60e-15 ]
       ~ramps:[ 30e-12; 150e-12 ] tech
       [ Netlist.Gate.Inv; Netlist.Gate.Nand 2 ])

let test_nldm_interpolation () =
  let lib = Lazy.force nldm_lib in
  let d_lo = Mtcmos.Nldm.delay lib Netlist.Gate.Inv ~cl:15e-15 ~slew_in:30e-12 in
  let d_hi = Mtcmos.Nldm.delay lib Netlist.Gate.Inv ~cl:60e-15 ~slew_in:30e-12 in
  let d_mid = Mtcmos.Nldm.delay lib Netlist.Gate.Inv ~cl:37.5e-15 ~slew_in:30e-12 in
  Alcotest.(check bool) "monotone in load" true (d_hi > d_lo);
  Alcotest.(check bool) "interpolation between corners" true
    (d_mid > d_lo && d_mid < d_hi);
  (* clamped extrapolation *)
  Alcotest.(check (float 1e-15)) "clamp below"
    d_lo
    (Mtcmos.Nldm.delay lib Netlist.Gate.Inv ~cl:1e-15 ~slew_in:30e-12);
  (try
     ignore (Mtcmos.Nldm.delay lib Netlist.Gate.Xor2 ~cl:1e-15 ~slew_in:1e-12);
     Alcotest.fail "expected Not_found"
   with Not_found -> ())

let test_nldm_sta () =
  let lib = Lazy.force nldm_lib in
  let ch = Fixtures.chain ~cl:50e-15 4 in
  let c = ch.Circuits.Chain.circuit in
  let t = Mtcmos.Nldm.sta lib c in
  let _, arrival = t.Mtcmos.Nldm.critical in
  Alcotest.(check bool) "arrival positive" true (arrival > 0.0);
  (* table STA should land within 2x of the first-order STA *)
  let fo = (Mtcmos.Sta.critical_path (Mtcmos.Sta.analyze c)).Mtcmos.Sta.arrival in
  let ratio = arrival /. fo in
  Alcotest.(check bool)
    (Printf.sprintf "within 2x of first-order (ratio %.2f)" ratio)
    true
    (ratio > 0.5 && ratio < 2.0);
  (* arrivals increase along the chain *)
  let a1 = t.Mtcmos.Nldm.arrival.(ch.Circuits.Chain.taps.(0)) in
  let a4 = t.Mtcmos.Nldm.arrival.(ch.Circuits.Chain.taps.(3)) in
  Alcotest.(check bool) "monotone along chain" true (a4 > a1)

(* ---- tables -------------------------------------------------------------------- *)

let test_table_basics () =
  let t = Phys.Table.create ~columns:[ "a"; "b" ] in
  Phys.Table.add_row t [ "x"; "y" ];
  Phys.Table.add_floats t [ 1.5; 2.5 ];
  Alcotest.(check string) "csv" "a,b\nx,y\n1.5,2.5\n" (Phys.Table.to_csv t);
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Table.add_row: width mismatch") (fun () ->
      Phys.Table.add_row t [ "only-one" ])

let string_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0

let test_table_csv_escaping () =
  let t = Phys.Table.create ~columns:[ "c" ] in
  Phys.Table.add_row t [ "has,comma" ];
  Phys.Table.add_row t [ "has\"quote" ];
  let csv = Phys.Table.to_csv t in
  Alcotest.(check bool) "comma quoted" true
    (string_contains csv "\"has,comma\"");
  Alcotest.(check bool) "quote doubled" true
    (string_contains csv "\"has\"\"quote\"")

let test_waveform_csv () =
  let w = Phys.Pwl.create [ (0.0, 0.0); (1.0, 1.0) ] in
  let t = Phys.Table.waveform_csv [ ("v", w) ] ~t0:0.0 ~t1:1.0 ~n:5 in
  let lines = String.split_on_char '\n' (Phys.Table.to_csv t) in
  (* header, 5 samples, and the empty string after the last newline *)
  Alcotest.(check int) "5 samples" 7 (List.length lines);
  let header = List.hd lines in
  Alcotest.(check int) "2 columns" 2
    (List.length (String.split_on_char ',' header))

let suite =
  [ Alcotest.test_case "search matches exhaustive" `Quick
      test_search_matches_exhaustive_small;
    Alcotest.test_case "search objectives" `Quick test_search_objectives;
    Alcotest.test_case "search deterministic" `Quick
      test_search_deterministic;
    Alcotest.test_case "search multiplier hotspot" `Slow
      test_search_finds_multiplier_hotspot;
    Alcotest.test_case "lint clean circuit" `Quick test_lint_clean_circuit;
    Alcotest.test_case "lint weak driver" `Quick test_lint_weak_driver;
    Alcotest.test_case "lint dangling/unused" `Quick
      test_lint_dangling_and_unused;
    Alcotest.test_case "lint hotspot" `Quick test_lint_hotspot;
    Alcotest.test_case "variation monte carlo" `Quick
      test_variation_monte_carlo;
    Alcotest.test_case "variation slow corner" `Quick
      test_variation_slow_corner_slower;
    Alcotest.test_case "random logic structure" `Quick
      test_random_logic_structure;
    Alcotest.test_case "sequence basic" `Quick test_sequence_basic;
    Alcotest.test_case "sequence violations" `Quick
      test_sequence_violations;
    Alcotest.test_case "sequence random workload" `Quick
      test_sequence_random_workload;
    Alcotest.test_case "resize fixes weak driver" `Quick
      test_resize_fixes_weak_driver;
    Alcotest.test_case "resize clean untouched" `Quick
      test_resize_clean_circuit_untouched;
    Alcotest.test_case "with_strengths" `Quick test_with_strengths;
    Alcotest.test_case "nldm interpolation" `Slow test_nldm_interpolation;
    Alcotest.test_case "nldm sta" `Slow test_nldm_sta;
    Alcotest.test_case "table basics" `Quick test_table_basics;
    Alcotest.test_case "table csv escaping" `Quick test_table_csv_escaping;
    Alcotest.test_case "waveform csv" `Quick test_waveform_csv;
    Prop.to_alcotest prop_random_circuits_settle_to_logic;
    Prop.to_alcotest prop_random_circuits_monotone_in_wl ]
