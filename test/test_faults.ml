(* Resilience suite over the fault-injection corpus.

   Contract: every corpus case run through the Result-typed analyses
   either recovers (finite waveforms only) or returns a structured
   [Diag.failure] — never an uncaught exception, a non-finite sample or
   an unbounded run.  Run standalone via [dune build @resilience]. *)

module E = Spice.Engine
module D = Spice.Diag
module F = Spice.Faults

let tech = Fixtures.tech

let finite_waveform w =
  List.for_all
    (fun (t, v) -> Float.is_finite t && Float.is_finite v)
    (Phys.Pwl.points w)

let check_diagnosis ~what (f : D.failure) =
  Alcotest.(check bool)
    (what ^ ": diagnosis carries a message")
    true
    (String.length f.D.message > 0);
  Alcotest.(check bool)
    (what ^ ": diagnosis renders")
    true
    (String.length (D.failure_to_string f) > 0)

(* a case's deck prepared with its step, its watched node and a Newton
   budget *)
let prepare ?newton_budget ?dt (case : F.case) =
  E.prepare
    ~opts:
      E.Opts.(
        default
        |> with_dt (Option.value dt ~default:case.F.dt)
        |> with_record (E.Nodes [ case.F.watch ])
        |> with_newton_budget newton_budget)
    case.F.netlist

(* the Absurd_timestep case carries the unperturbed base deck; with a
   sane dt it is the suite's healthy reference *)
let healthy_deck () = F.inject ~tech F.Absurd_timestep

(* recover-or-diagnose, one test per fault class *)
let transient_case fault () =
  let case = F.inject ~tech fault in
  let what = F.name fault in
  let eng = prepare case in
  let tm = D.create_telemetry () in
  match E.transient_r eng ~t_stop:case.F.t_stop ~telemetry:tm with
  | Ok res ->
    Alcotest.(check bool)
      (what ^ ": recovered run has only finite samples")
      true
      (finite_waveform (E.waveform res case.F.watch));
    Alcotest.(check bool)
      (what ^ ": final solution is finite")
      true
      (Array.for_all Float.is_finite (E.final_solution res))
  | Error f -> check_diagnosis ~what f
  | exception e ->
    Alcotest.failf "%s: transient_r leaked exception %s" what
      (Printexc.to_string e)

let dc_case fault () =
  let case = F.inject ~tech fault in
  let what = F.name fault in
  let eng = E.prepare case.F.netlist in
  match E.dc_r eng with
  | Ok x ->
    Alcotest.(check bool)
      (what ^ ": DC solution is finite")
      true
      (Array.for_all Float.is_finite x)
  | Error f -> check_diagnosis ~what f
  | exception e ->
    Alcotest.failf "%s: dc_r leaked exception %s" what
      (Printexc.to_string e)

(* a starved solver: under a one-iteration budget no corpus case raises,
   and every failure names exactly the fixed ladder it walked — the gmin
   ramp for an operating point (a transient's own included), step
   halving for a rejected time step *)
let starved_budget_walks_the_ladder () =
  Alcotest.check_raises "a budget of 0 is rejected"
    (Invalid_argument "Engine.prepare: newton_budget <= 0") (fun () ->
      ignore (prepare ~newton_budget:0 (healthy_deck ())));
  let failures = ref 0 in
  let check_ladder name what (f : D.failure) =
    incr failures;
    let ladder =
      match f.D.analysis with
      | D.Dc -> [ "gmin-ramp" ]
      | D.Transient -> [ "shrink-step" ]
    in
    Alcotest.(check (list string))
      (name ^ ": " ^ what ^ " failure walked the fixed ladder")
      ladder f.D.recovery_attempts
  in
  List.iter
    (fun (case : F.case) ->
      let name = F.name case.F.fault in
      let eng = prepare ~newton_budget:1 case in
      (match E.dc_r eng with
       | Ok _ -> ()
       | Error f -> check_ladder name "dc" f
       | exception e ->
         Alcotest.failf "%s: starved dc_r leaked exception %s" name
           (Printexc.to_string e));
      match E.transient_r eng ~t_stop:case.F.t_stop with
      | Ok _ -> ()
      | Error f -> check_ladder name "transient" f
      | exception e ->
        Alcotest.failf "%s: starved transient_r leaked exception %s" name
          (Printexc.to_string e))
    (F.corpus ~tech);
  Alcotest.(check bool) "a starved analysis failed" true (!failures > 0)

(* A catalog circuit as the transistor-level sweep builds it: every
   input switches low to high over 50 ps from 100 ps, an optional sleep
   device of W/L [sleep_wl], and a DC seed from the logic steady state
   of the all-low vector. *)
let catalog_deck ?sleep_wl ~dt circuit =
  let module C = Netlist.Circuit in
  let module X = Netlist.Expand in
  let module S = Netlist.Signal in
  let vdd = (C.tech circuit).Device.Tech.vdd in
  let inputs = C.inputs circuit in
  let rise = Phys.Pwl.create [ (0.0, 0.0); (100e-12, 0.0); (150e-12, vdd) ] in
  let config =
    match sleep_wl with
    | Some wl -> X.mtcmos ~wl
    | None -> X.default
  in
  let inst =
    X.expand ~config circuit
      ~stimuli:(Array.to_list (Array.map (fun n -> (n, rise)) inputs))
  in
  let steady =
    Netlist.Logic_sim.eval circuit (Array.map (fun _ -> S.L0) inputs)
  in
  let hints =
    (inst.X.vdd_node, vdd)
    :: List.filter_map
         (fun net ->
           match steady.(net) with
           | S.L1 -> Some (inst.X.node_of_net.(net), vdd)
           | S.L0 | S.X -> None)
         (List.init (C.num_nets circuit) Fun.id)
  in
  let out = inst.X.node_of_net.((C.outputs circuit).(0)) in
  let eng =
    E.prepare
      ~opts:E.Opts.(default |> with_dt dt |> with_record (E.Nodes [ out ]))
      inst.X.netlist
  in
  (eng, E.initial_guess eng hints, out)

(* regression pin: a real deck whose direct DC solve fails at the
   default budgets (the 10-gate random cloud, conventional CMOS, 0.7um
   card) is rescued by the gmin ramp, and the rescue is recorded *)
let gmin_ramp_rescues_dc () =
  let r = Circuits.Random_logic.make ~seed:7 tech ~inputs:4 ~gates:10 in
  let eng, x0, _ = catalog_deck ~dt:2e-12 r.Circuits.Random_logic.circuit in
  let tm = D.create_telemetry () in
  match E.dc_r ~x0 ~telemetry:tm eng with
  | Error f ->
    Alcotest.failf "random10 DC not rescued: %s" (D.failure_to_string f)
  | Ok x ->
    Alcotest.(check bool) "solution finite" true
      (Array.for_all Float.is_finite x);
    Alcotest.(check bool) "gmin ramp ran" true (tm.D.gmin_rounds > 0);
    Alcotest.(check (list (pair string int)))
      "rescue recorded" [ ("gmin-ramp", 1) ] tm.D.recoveries

(* regression pin: the 4-bit ripple adder on the 0.3um card behind a
   W/L 2 sleep device rejects nominal time steps that step halving
   rescues, and the rescues are recorded *)
let shrink_step_rescues_transient () =
  let a = Circuits.Ripple_adder.make Fixtures.tech03 ~bits:4 in
  let eng, x0, out =
    catalog_deck ~sleep_wl:2.0 ~dt:3.5e-12 a.Circuits.Ripple_adder.circuit
  in
  let tm = D.create_telemetry () in
  match E.transient_r eng ~x0 ~telemetry:tm ~t_stop:10.5e-9 with
  | Error f ->
    Alcotest.failf "adder4 transient failed: %s" (D.failure_to_string f)
  | Ok res ->
    Alcotest.(check bool) "output samples finite" true
      (finite_waveform (E.waveform res out));
    Alcotest.(check bool) "step halving rescued a step" true
      (List.mem_assoc "shrink-step" tm.D.recoveries)

let transient_dt_validation () =
  let eng = prepare ~dt:2e-9 (healthy_deck ()) in
  Alcotest.check_raises "dt > t_stop rejected"
    (Invalid_argument "Engine.transient: dt > t_stop") (fun () ->
      ignore (E.transient_r eng ~t_stop:1e-9))

(* bounded effort: even the pathological corpus must finish quickly.
   Generous wall-clock bound — this guards against hangs, not speed. *)
let corpus_terminates_quickly () =
  let t0 = Sys.time () in
  List.iter
    (fun (case : F.case) ->
      let eng = prepare case in
      ignore (E.dc_r eng);
      ignore (E.transient_r eng ~t_stop:case.F.t_stop))
    (F.corpus ~tech);
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "corpus finished in %.1fs" elapsed)
    true (elapsed < 60.0)

let suite =
  List.map
    (fun fault ->
      Alcotest.test_case
        ("transient recover-or-diagnose: " ^ F.name fault)
        `Quick (transient_case fault))
    F.all
  @ List.map
      (fun fault ->
        Alcotest.test_case
          ("dc recover-or-diagnose: " ^ F.name fault)
          `Quick (dc_case fault))
      F.all
  @ [ Alcotest.test_case "starved budget walks the fixed ladder" `Quick
        starved_budget_walks_the_ladder;
      Alcotest.test_case "gmin ramp rescues a real DC" `Quick
        gmin_ramp_rescues_dc;
      Alcotest.test_case "shrink step rescues a real transient" `Quick
        shrink_step_rescues_transient;
      Alcotest.test_case "transient rejects dt > t_stop" `Quick
        transient_dt_validation;
      Alcotest.test_case "fault corpus terminates quickly" `Slow
        corpus_terminates_quickly ]

let () = Alcotest.run "resilience" [ ("faults", suite) ]
