module C = Netlist.Circuit
module BP = Breakpoint_sim

type sample = {
  dvt : float;
  dkp_rel : float;
  delay : float;
  vx_peak : float;
}

type stats = {
  samples : sample array;
  delay_summary : Phys.Stats.summary;
  vx_summary : Phys.Stats.summary;
  degradation_p95 : float;
}

let gaussian st =
  (* Box-Muller *)
  let u1 = Random.State.float st 1.0 +. 1e-12 in
  let u2 = Random.State.float st 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let shift_params (p : Device.Mosfet.params) ~dvt ~dkp_rel =
  { p with
    Device.Mosfet.vt0 = p.Device.Mosfet.vt0 +. dvt;
    kp = p.Device.Mosfet.kp *. (1.0 +. dkp_rel) }

let shift_tech (tech : Device.Tech.t) ~dvt ~dkp_rel =
  { tech with
    Device.Tech.nmos = shift_params tech.Device.Tech.nmos ~dvt ~dkp_rel;
    pmos = shift_params tech.Device.Tech.pmos ~dvt ~dkp_rel;
    sleep_nmos = shift_params tech.Device.Tech.sleep_nmos ~dvt ~dkp_rel;
    sleep_pmos = shift_params tech.Device.Tech.sleep_pmos ~dvt ~dkp_rel }

let monte_carlo ?ctx ?(seed = 99) ~n circuit ~wl ~vector =
  if n < 1 then invalid_arg "Variation.monte_carlo: n < 1";
  let ctx = Option.value ctx ~default:Eval.Ctx.default in
  let cache = ctx.Eval.Ctx.cache in
  let obs = ctx.Eval.Ctx.obs in
  Obs.Span.with_ obs "variation.monte_carlo" @@ fun () ->
  let st = Random.State.make [| seed |] in
  let tech0 = C.tech circuit in
  let before, after = vector in
  (* nominal CMOS baseline, fixed across samples; the MC itself is
     switch-level, so the baseline is pinned to the breakpoint engine
     whatever the context says *)
  let nominal_cmos =
    Sizing.cmos_delay
      ~ctx:
        { ctx with
          Eval.Ctx.engine = Eval.Breakpoint;
          Eval.Ctx.jobs = 1;
          Eval.Ctx.stats = None }
      circuit ~vectors:[ vector ]
  in
  (* the parameter shifts are presampled sequentially from the single
     seeded stream (same draw order as ever: dvt then dkp per sample),
     so the sample values are independent of [jobs] — only the
     simulations fan out across domains *)
  let params =
    Array.init n (fun _ ->
        let dvt = 0.02 *. gaussian st in
        let dkp_rel = 0.05 *. gaussian st in
        (dvt, dkp_rel))
  in
  let run_sample wobs (dvt, dkp_rel) =
    let tech = shift_tech tech0 ~dvt ~dkp_rel in
    let config =
      { BP.default_config with
        BP.sleep = BP.Sleep_fet (Device.Sleep.nmos_footer tech ~wl);
        tech_override = Some tech }
    in
    let d, vx, _ =
      Cached.bp_metrics ?cache ~obs:wobs ~config circuit ~before ~after
    in
    { dvt; dkp_rel; delay = Option.value d ~default:0.0; vx_peak = vx }
  in
  (* per-worker obs shards keep the metric writes lock-free; merged back
     in worker order after the join, like the resilience accumulators
     elsewhere *)
  let samples =
    Par.Pool.map_stateful ~obs ~jobs:ctx.Eval.Ctx.jobs
      ~create:(fun () -> Obs.shard obs)
      ~merge:(fun o -> Obs.merge_shard ~into:obs o)
      n
      (fun wobs i -> run_sample wobs params.(i))
  in
  let delays = Array.map (fun s -> s.delay) samples in
  let vxs = Array.map (fun s -> s.vx_peak) samples in
  let degradations =
    Array.map (fun d -> (d -. nominal_cmos) /. nominal_cmos) delays
  in
  { samples;
    delay_summary = Phys.Stats.summarize delays;
    vx_summary = Phys.Stats.summarize vxs;
    degradation_p95 = Phys.Stats.percentile degradations 95.0 }
