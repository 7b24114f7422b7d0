module C = Netlist.Circuit
module T = Netlist.Transistor
module K = Eval.Key

type point = {
  cl : float;
  ramp : float;
  fall_delay : float;
  rise_delay : float;
  fall_slew : float;
  rise_slew : float;
}

let resolve ?ctx () = Option.value ctx ~default:Eval.Ctx.default

(* single-gate fixture: pin 0 driven, remaining pins tied so pin 0 is
   controlling (ties high for AND-like pulldowns, low for OR-like). *)
let fixture tech kind ~cl =
  let b = C.builder tech in
  let drive_in = C.add_input ~name:"in" b in
  let n = Netlist.Gate.arity kind in
  let tie v = C.add_tie b v in
  (* side pins chosen so pin 0 is the controlling input and the gate's
     static [inverting] attribute matches the fixture's behaviour *)
  let pins =
    match kind with
    | Netlist.Gate.Carry_inv ->
      (* maj(a, 1, 0) = a *)
      [ drive_in; tie true; tie false ]
    | Netlist.Gate.Sum_inv ->
      (* parity(a, 0, 0) = a; carry-bar pin high so the bypass branch
         of the mirror network is live *)
      [ drive_in; tie false; tie false; tie true ]
    | Netlist.Gate.Aoi21 ->
      (* not ((a and 1) or 0) = not a *)
      [ drive_in; tie true; tie false ]
    | Netlist.Gate.Oai21 ->
      (* not ((a or 0) and 1) = not a *)
      [ drive_in; tie false; tie true ]
    | Netlist.Gate.Nor _ | Netlist.Gate.Or _ | Netlist.Gate.Xor2
    | Netlist.Gate.Xnor2 ->
      drive_in :: List.init (n - 1) (fun _ -> tie false)
    | Netlist.Gate.Inv | Netlist.Gate.Buf | Netlist.Gate.Nand _
    | Netlist.Gate.And _ ->
      drive_in :: List.init (n - 1) (fun _ -> tie true)
  in
  let out = C.add_gate ~name:"out" b kind pins in
  C.add_load b out cl;
  C.mark_output b out;
  (C.freeze b, drive_in, out)

let edge ~t0 ~ramp ~rising ~vdd =
  if rising then Phys.Pwl.create [ (0.0, 0.0); (t0, 0.0); (t0 +. ramp, vdd) ]
  else Phys.Pwl.create [ (0.0, vdd); (t0, vdd); (t0 +. ramp, 0.0) ]

let measure_uncached ~newton_budget ?obs ?stats tech kind ~cl ~ramp =
  let vdd = tech.Device.Tech.vdd in
  let circuit, drive_in, out = fixture tech kind ~cl in
  let t0 = 200e-12 in
  let run ~in_rising =
    let wave = edge ~t0 ~ramp ~rising:in_rising ~vdd in
    let inst =
      Netlist.Expand.expand circuit ~stimuli:[ (drive_in, wave) ]
    in
    let engine =
      Spice.Engine.prepare
        ~opts:
          Spice.Engine.Opts.(
            default |> with_dt 2e-12 |> with_newton_budget newton_budget
            |> with_record
                 (Spice.Engine.Nodes [ inst.Netlist.Expand.node_of_net.(out) ]))
        inst.Netlist.Expand.netlist
    in
    match Spice.Engine.transient_r engine ~t_stop:4e-9 ?obs with
    | Ok res ->
      Eval.Resilience.record_success ?stats (Spice.Engine.telemetry res);
      let w =
        Spice.Engine.waveform res inst.Netlist.Expand.node_of_net.(out)
      in
      Some (wave, w)
    | Error f ->
      (* a failed fixture degrades to NaN entries in the point rather
         than killing the whole characterisation run *)
      Eval.Resilience.record_skip ?stats
        ~label:
          (Printf.sprintf "%s cl=%g ramp=%g %s" (Netlist.Gate.name kind)
             cl ramp
             (if in_rising then "rise" else "fall"))
        f;
      None
  in
  let inverting = Netlist.Gate.inverting kind in
  let rise_run = run ~in_rising:true in
  let fall_run = run ~in_rising:false in
  let delay r ~in_rising ~out_rising =
    match r with
    | None -> nan
    | Some (vin, vout) ->
      (match
         Spice.Measure.propagation_delay ~vin ~vout ~vdd ~in_rising
           ~out_rising
       with
       | Some d -> d
       | None -> nan)
  in
  (* 10-90 % output transition time *)
  let slew r ~out_rising =
    match r with
    | None -> nan
    | Some (_, vout) ->
      let lo = 0.1 *. vdd and hi = 0.9 *. vdd in
      let first level rising =
        Phys.Pwl.first_crossing ~after:t0 vout ~level ~rising
      in
      (match
         if out_rising then (first lo true, first hi true)
         else (first hi false, first lo false)
       with
       | Some a, Some b when b > a -> b -. a
       | _ -> nan)
  in
  if inverting then
    { cl; ramp;
      fall_delay = delay rise_run ~in_rising:true ~out_rising:false;
      rise_delay = delay fall_run ~in_rising:false ~out_rising:true;
      fall_slew = slew rise_run ~out_rising:false;
      rise_slew = slew fall_run ~out_rising:true }
  else
    { cl; ramp;
      fall_delay = delay fall_run ~in_rising:false ~out_rising:false;
      rise_delay = delay rise_run ~in_rising:true ~out_rising:true;
      fall_slew = slew fall_run ~out_rising:false;
      rise_slew = slew rise_run ~out_rising:true }

let measure_ctx ?ctx tech kind ~cl ~ramp =
  let ctx = resolve ?ctx () in
  let newton_budget = ctx.Eval.Ctx.newton_budget in
  let compute stats =
    measure_uncached ~newton_budget ~obs:ctx.Eval.Ctx.obs ?stats tech kind
      ~cl ~ramp
  in
  match ctx.Eval.Ctx.cache with
  | None -> compute ctx.Eval.Ctx.stats
  | Some _ ->
    let key =
      lazy
        (let b = K.create () in
         K.tech b tech;
         K.string b (Netlist.Gate.name kind);
         K.int b (Netlist.Gate.arity kind);
         K.float b cl;
         K.float b ramp;
         K.option b K.int newton_budget;
         Cached.digest ~tag:"char1" [ K.contents b ])
    in
    Eval.Cache.memo ?cache:ctx.Eval.Ctx.cache ?stats:ctx.Eval.Ctx.stats ~key
      ~arity:4
      ~to_floats:(fun p ->
        [| p.fall_delay; p.rise_delay; p.fall_slew; p.rise_slew |])
      ~of_floats:(fun a ->
        { cl; ramp;
          fall_delay = a.(0);
          rise_delay = a.(1);
          fall_slew = a.(2);
          rise_slew = a.(3) })
      compute

let measure tech kind ~cl ~ramp = measure_ctx tech kind ~cl ~ramp

let gate ?ctx ?(loads = [ 10e-15; 20e-15; 50e-15; 100e-15 ])
    ?(ramps = [ 20e-12; 100e-12 ]) tech kind =
  let ctx = resolve ?ctx () in
  Obs.Span.with_ ctx.Eval.Ctx.obs "characterize.gate" @@ fun () ->
  (* the grid is materialised in loads-major order (same order the old
     sequential concat_map produced) and each operating point is an
     independent fixture run, so parallelising over the flat grid keeps
     the result list identical whatever [jobs] is *)
  let grid =
    Array.of_list
      (List.concat_map
         (fun cl -> List.map (fun ramp -> (cl, ramp)) ramps)
         loads)
  in
  let points =
    Par.Pool.map_stateful ~obs:ctx.Eval.Ctx.obs ~jobs:ctx.Eval.Ctx.jobs
      ~chunk:1
      ~create:(fun () -> Eval.Ctx.worker ctx)
      ~merge:(fun w -> Eval.Ctx.merge_worker ~into:ctx w)
      (Array.length grid)
      (fun wctx i ->
        let cl, ramp = grid.(i) in
        measure_ctx ~ctx:wctx tech kind ~cl ~ramp)
  in
  Array.to_list points

(* the switch-level model's own prediction, for the calibration ratio *)
let first_order_fall tech kind ~cl =
  let model = Delay_model.of_tech tech in
  let d = Netlist.Gate.drive tech ~strength:1.0 kind in
  Delay_model.cmos_gate_delay model ~beta_wl:d.Netlist.Gate.wl_pull_down
    ~cl

let calibration_factor ?(loads = [ 20e-15; 50e-15; 100e-15 ]) tech =
  let ratios =
    List.map
      (fun cl ->
        let p = measure tech Netlist.Gate.Inv ~cl ~ramp:20e-12 in
        (* the fixture load includes pin/junction parasitics on top of cl *)
        let b = C.builder tech in
        let a = C.add_input b in
        let out = C.add_gate b Netlist.Gate.Inv [ a ] in
        C.add_load b out cl;
        C.mark_output b out;
        let c = C.freeze b in
        let total_cl = C.load_capacitance c out in
        p.fall_delay /. first_order_fall tech Netlist.Gate.Inv ~cl:total_cl)
      loads
  in
  List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios)

let pp_point fmt p =
  Format.fprintf fmt "cl=%s ramp=%s fall=%s rise=%s slew_f=%s slew_r=%s"
    (Phys.Units.to_eng_string ~unit:"F" p.cl)
    (Phys.Units.to_eng_string ~unit:"s" p.ramp)
    (Phys.Units.to_eng_string ~unit:"s" p.fall_delay)
    (Phys.Units.to_eng_string ~unit:"s" p.rise_delay)
    (Phys.Units.to_eng_string ~unit:"s" p.fall_slew)
    (Phys.Units.to_eng_string ~unit:"s" p.rise_slew)
