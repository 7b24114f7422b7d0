(* Unit and property tests for the phys utility library. *)

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let test_units () =
  Alcotest.(check string) "eng ps" "320ps"
    (Phys.Units.to_eng_string ~unit:"s" 320e-12);
  Alcotest.(check string) "eng zero" "0s"
    (Phys.Units.to_eng_string ~unit:"s" 0.0);
  Alcotest.(check string) "eng negative" "-1.5nA"
    (Phys.Units.to_eng_string ~unit:"A" (-1.5e-9));
  Alcotest.(check string) "eng infinite" "inf"
    (Phys.Units.to_eng_string ~unit:"s" Float.infinity);
  Alcotest.(check string) "eng -infinite" "-inf"
    (Phys.Units.to_eng_string ~unit:"s" Float.neg_infinity)

let approx_eq ?(rel = 1e-9) ?(abs = 1e-12) a b =
  let diff = Float.abs (a -. b) in
  diff <= abs || diff <= rel *. Float.max (Float.abs a) (Float.abs b)

let test_float_utils () =
  check_float "clamp low" 0.0 (Phys.Float_utils.clamp ~lo:0.0 ~hi:1.0 (-5.0));
  check_float "clamp high" 1.0 (Phys.Float_utils.clamp ~lo:0.0 ~hi:1.0 5.0);
  check_float "clamp mid" 0.5 (Phys.Float_utils.clamp ~lo:0.0 ~hi:1.0 0.5);
  let ls = Phys.Float_utils.linspace 0.0 1.0 5 in
  Alcotest.(check int) "linspace length" 5 (Array.length ls);
  check_float "linspace mid" 0.5 ls.(2);
  check_float "linspace end" 1.0 ls.(4);
  Alcotest.check_raises "linspace n=1" (Invalid_argument
    "Float_utils.linspace: n must be >= 2")
    (fun () -> ignore (Phys.Float_utils.linspace 0.0 1.0 1))

let test_rootfind () =
  let f x = (x *. x) -. 2.0 in
  check_float ~eps:1e-9 "bisect sqrt2" (sqrt 2.0)
    (Phys.Rootfind.bisect f ~lo:0.0 ~hi:2.0);
  check_float ~eps:1e-9 "brent sqrt2" (sqrt 2.0)
    (Phys.Rootfind.brent f ~lo:0.0 ~hi:2.0);
  Alcotest.check_raises "no bracket" Phys.Rootfind.No_bracket (fun () ->
      ignore (Phys.Rootfind.bisect f ~lo:2.0 ~hi:3.0))

let test_pwl_basic () =
  let w = Phys.Pwl.create [ (0.0, 0.0); (1.0, 1.0); (2.0, 0.0) ] in
  check_float "interp mid rise" 0.5 (Phys.Pwl.value_at w 0.5);
  check_float "interp mid fall" 0.5 (Phys.Pwl.value_at w 1.5);
  check_float "before start" 0.0 (Phys.Pwl.value_at w (-1.0));
  check_float "after end" 0.0 (Phys.Pwl.value_at w 5.0);
  let mn, mx = Phys.Pwl.extrema w in
  check_float "min" 0.0 mn;
  check_float "max" 1.0 mx;
  (match Phys.Pwl.first_crossing w ~level:0.5 ~rising:true with
   | Some t -> check_float "rise crossing" 0.5 t
   | None -> Alcotest.fail "no rising crossing");
  (match Phys.Pwl.first_crossing w ~level:0.5 ~rising:false with
   | Some t -> check_float "fall crossing" 1.5 t
   | None -> Alcotest.fail "no falling crossing");
  Alcotest.(check int) "two crossings" 2
    (List.length (Phys.Pwl.crossings w ~level:0.5));
  let shifted = Phys.Pwl.shift w 1.0 in
  check_float "shift" 0.5 (Phys.Pwl.value_at shifted 1.5);
  let doubled = Phys.Pwl.map (fun v -> 2.0 *. v) w in
  check_float "map" 1.0 (Phys.Pwl.value_at doubled 0.5)

let test_pwl_edge_cases () =
  Alcotest.check_raises "empty" (Invalid_argument "Pwl.create: empty")
    (fun () -> ignore (Phys.Pwl.create []));
  let c = Phys.Pwl.constant 3.0 in
  check_float "constant anywhere" 3.0 (Phys.Pwl.value_at c 17.0);
  Alcotest.(check (option (float 1e-12))) "constant no crossing" None
    (Phys.Pwl.first_crossing c ~level:2.0 ~rising:true);
  (* duplicate time keeps the last value *)
  let w = Phys.Pwl.create [ (0.0, 0.0); (1.0, 1.0); (1.0, 5.0) ] in
  check_float "dup keeps last" 5.0 (Phys.Pwl.value_at w 1.0);
  (* unsorted input is sorted *)
  let w = Phys.Pwl.create [ (2.0, 2.0); (0.0, 0.0); (1.0, 1.0) ] in
  check_float "sorting" 1.5 (Phys.Pwl.value_at w 1.5)

let test_stats () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let s = Phys.Stats.summarize xs in
  check_float "mean" 3.0 s.Phys.Stats.mean;
  check_float "median" 3.0 s.Phys.Stats.median;
  check_float "min" 1.0 s.Phys.Stats.min;
  check_float "max" 5.0 s.Phys.Stats.max;
  check_float ~eps:1e-6 "stddev" (sqrt 2.0) s.Phys.Stats.stddev;
  check_float "p0" 1.0 (Phys.Stats.percentile xs 0.0);
  check_float "p100" 5.0 (Phys.Stats.percentile xs 100.0);
  check_float "p25" 2.0 (Phys.Stats.percentile xs 25.0);
  let ys = [| 2.0; 4.0; 6.0; 8.0; 10.0 |] in
  check_float ~eps:1e-9 "perfect corr" 1.0 (Phys.Stats.correlation xs ys);
  check_float ~eps:1e-9 "perfect rank corr" 1.0
    (Phys.Stats.rank_correlation xs ys);
  let zs = [| 10.0; 8.0; 6.0; 4.0; 2.0 |] in
  check_float ~eps:1e-9 "anti rank corr" (-1.0)
    (Phys.Stats.rank_correlation xs zs)

(* ---- properties -------------------------------------------------------- *)

let prop_pwl_within_extrema =
  QCheck.Test.make ~count:200 ~name:"pwl: value_at stays within extrema"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 20)
           (pair (float_bound_exclusive 100.0) (float_bound_exclusive 10.0)))
        (float_bound_exclusive 120.0))
    (fun (pts, t) ->
      QCheck.assume (pts <> []);
      let w = Phys.Pwl.create pts in
      let mn, mx = Phys.Pwl.extrema w in
      let v = Phys.Pwl.value_at w t in
      v >= mn -. 1e-9 && v <= mx +. 1e-9)

let prop_sum_matches_naive =
  QCheck.Test.make ~count:200 ~name:"float_utils: kahan sum ~ naive sum"
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun xs ->
      let arr = Array.of_list xs in
      let naive = Array.fold_left ( +. ) 0.0 arr in
      approx_eq ~rel:1e-9 ~abs:1e-9
        (Phys.Float_utils.sum arr) naive)

let prop_brent_root =
  QCheck.Test.make ~count:200 ~name:"rootfind: brent solves shifted cubes"
    QCheck.(float_range 0.1 10.0)
    (fun a ->
      let f x = (x *. x *. x) -. a in
      let root = Phys.Rootfind.brent f ~lo:0.0 ~hi:11.0 in
      Float.abs (f root) < 1e-6)

let prop_rank_corr_bounded =
  QCheck.Test.make ~count:100 ~name:"stats: rank correlation in [-1, 1]"
    QCheck.(list_of_size Gen.(int_range 2 40) (float_bound_exclusive 50.0))
    (fun xs ->
      let n = List.length xs in
      let a = Array.of_list xs in
      let b = Array.init n (fun i -> a.((i + 1) mod n)) in
      let r = Phys.Stats.rank_correlation a b in
      r >= -1.0 -. 1e-9 && r <= 1.0 +. 1e-9)

let test_ascii_plot () =
  let w = Phys.Pwl.create [ (0.0, 0.0); (1e-9, 1.2) ] in
  let s = Phys.Ascii_plot.waveforms [ ('x', w) ] in
  Alcotest.(check bool) "nonempty render" true (String.length s > 100);
  Alcotest.(check bool) "marker drawn" true (String.contains s 'x');
  Alcotest.(check bool) "axis drawn" true (String.contains s '+');
  Alcotest.check_raises "empty waveforms"
    (Invalid_argument "Ascii_plot.waveforms: empty") (fun () ->
      ignore (Phys.Ascii_plot.waveforms []))

let suite =
  [ Alcotest.test_case "units" `Quick test_units;
    Alcotest.test_case "ascii plot" `Quick test_ascii_plot;
    Alcotest.test_case "float_utils" `Quick test_float_utils;
    Alcotest.test_case "rootfind" `Quick test_rootfind;
    Alcotest.test_case "pwl basic" `Quick test_pwl_basic;
    Alcotest.test_case "pwl edge cases" `Quick test_pwl_edge_cases;
    Alcotest.test_case "stats" `Quick test_stats;
    Prop.to_alcotest prop_pwl_within_extrema;
    Prop.to_alcotest prop_sum_matches_naive;
    Prop.to_alcotest prop_brent_root;
    Prop.to_alcotest prop_rank_corr_bounded ]
