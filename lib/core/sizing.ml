module BP = Breakpoint_sim

type vector_pair = (int * int) list * (int * int) list

type measurement = {
  wl : float;
  cmos_delay : float;
  mtcmos_delay : float;
  degradation : float;
  vx_peak : float;
}

let worst_delay_cached ?cache ?obs ~config c vectors =
  List.fold_left
    (fun (dmax, vxmax) (before, after) ->
      let d, vx, _ = Cached.bp_metrics ?cache ?obs ~config c ~before ~after in
      let d = Option.value d ~default:0.0 in
      (Float.max dmax d, Float.max vxmax vx))
    (0.0, 0.0) vectors

let worst_delay_bp ?obs ~config c vectors =
  worst_delay_cached ?obs ~config c vectors

let check_target target =
  if Float.is_nan target then invalid_arg "Sizing: target is NaN"

(* the one degradation test, per vector or on the worst delay *)
let within ~base ~target d = (d -. base) /. base <= target

(* Does every vector meet [target] under [config]?  Stops at the first
   vector that does not, trying vectors worst-first by their most
   recent delay (ties in input order).  Each vector is tested with the
   very expression the worst-delay check applies to the maximum, and
   that expression is monotone in [d] in floating point, so "every
   vector passes" and "the maximum passes" agree bit for bit, whatever
   the delays do across W/L.  [d] is clamped at 0 as the fold in
   [worst_delay_bp] starts from 0. *)
let feasibility_cached ?cache ?obs c vectors ~base ~target =
  check_target target;
  let vecs = Array.of_list vectors in
  let last = Array.make (Array.length vecs) neg_infinity in
  let order = Array.init (Array.length vecs) Fun.id in
  let worst_first i j =
    match Float.compare last.(j) last.(i) with 0 -> Int.compare i j | o -> o
  in
  fun config ->
    Array.sort worst_first order;
    Array.for_all
      (fun i ->
        let before, after = vecs.(i) in
        let d, _, _ = Cached.bp_metrics ?cache ?obs ~config c ~before ~after in
        let d = Float.max 0.0 (Option.value d ~default:0.0) in
        last.(i) <- d;
        within ~base ~target d)
      order

let feasibility_bp c vectors ~base ~target =
  feasibility_cached c vectors ~base ~target

(* one vector's transistor-level measurement, with graceful
   degradation: record the diagnosis and fall back to the
   breakpoint-simulator estimate for this vector instead of aborting
   the whole sweep.  Cached per (circuit, spice config, fallback
   config, vector): the entry stores the post-fallback (delay, vx)
   together with the resilience deltas the computation recorded, so a
   hit replays the exact counters of the miss that filled it.

   A transient in which no output crosses vdd/2 reads as delay 0 only
   when the switch-level run of the same vector switches no output
   either (the vector does nothing); otherwise the sleep device is too
   small for the transition to finish within the window, and the
   vector reads as an infinite delay, which meets no target. *)
let spice_vector ?cache ?obs ~config ~bp_config ?stats c (before, after) =
  let compute stats =
    match Spice_ref.run_ints_r ~config ?obs c ~before ~after with
    | Ok r ->
      Eval.Resilience.record_success ?stats (Spice_ref.telemetry r);
      let d =
        match Spice_ref.critical_delay r with
        | Some (_, d) -> d
        | None ->
          let bp_d, _, _ =
            Cached.bp_metrics ?obs ~config:bp_config c ~before ~after
          in
          if Option.is_some bp_d then Float.infinity else 0.0
      in
      (d, Spice_ref.vx_peak r)
    | Error f ->
      Eval.Resilience.record_skip ?stats ~kind:Eval.Resilience.Estimated
        ~label:(Vectors.label (before, after))
        f;
      worst_delay_bp ?obs ~config:bp_config c [ (before, after) ]
  in
  let key =
    lazy
      (Cached.digest ~tag:"szv2"
         [ Cached.circuit_key c;
           Cached.sp_config_key config;
           Cached.bp_config_key bp_config;
           Cached.vector_key ~before ~after ])
  in
  Eval.Cache.memo ?cache ?stats ~key ~arity:2
    ~to_floats:(fun (d, vx) -> [| d; vx |])
    ~of_floats:(fun a -> (a.(0), a.(1)))
    compute

(* parallel over vectors; per-worker accumulators keep the recording
   lock-free and are merged back (in worker order) after the join, and
   the max-reduction runs in index order, so the measurement and the
   diagnostics are independent of [jobs].  The cache may be shared by
   the workers (it is mutex-guarded): a hit replays the same counters
   the computation would have recorded, so the totals stay independent
   of [jobs] and of the cache state. *)
let worst_delay_spice ?cache ?(obs = Obs.disabled) ~config ~bp_config ?stats
    ~jobs c vectors =
  let vecs = Array.of_list vectors in
  let per_vector =
    Par.Pool.map_stateful ~obs ~jobs ~chunk:1
      ~create:(fun () -> (Eval.Resilience.create (), Obs.shard obs))
      ~merge:(fun (w, o) ->
        (match stats with
         | Some s -> Eval.Resilience.merge_into ~into:s w
         | None -> ());
        Obs.merge_shard ~into:obs o)
      (Array.length vecs)
      (fun (wstats, wobs) i ->
        spice_vector ?cache ~obs:wobs ~config ~bp_config ~stats:wstats c
          vecs.(i))
  in
  Array.fold_left
    (fun (dmax, vxmax) (d, vx) -> (Float.max dmax d, Float.max vxmax vx))
    (0.0, 0.0) per_vector

let footer_at c ~wl =
  BP.Sleep_fet (Device.Sleep.nmos_footer (Netlist.Circuit.tech c) ~wl)

let smallest_feasible ~lo ~hi feasible =
  if feasible lo then lo
  else
    (* bisection on log scale: feasibility is monotone in wl *)
    let rec refine lo hi iter =
      if iter > 60 || hi /. lo <= 1.01 then hi
      else
        let mid = sqrt (lo *. hi) in
        if feasible mid then refine lo mid (iter + 1)
        else refine mid hi (iter + 1)
    in
    refine lo hi 0

let bp_config (ctx : Eval.Ctx.t) ~sleep =
  { BP.default_config with BP.sleep; body_effect = ctx.Eval.Ctx.body_effect }

let worst_delay_ctx (ctx : Eval.Ctx.t) c ~sleep vectors =
  let cache = ctx.Eval.Ctx.cache in
  let obs = ctx.Eval.Ctx.obs in
  let bp_config = bp_config ctx ~sleep in
  match ctx.Eval.Ctx.engine with
  | Eval.Breakpoint ->
    worst_delay_cached ?cache ~obs ~config:bp_config c vectors
  | Eval.Spice_level ->
    (* size the transient horizon from the fast estimate so slow (small
       sleep device) cases are not cut off *)
    let estimate, _ =
      worst_delay_cached ?cache ~obs ~config:bp_config c vectors
    in
    let t_stop =
      Float.max Spice_ref.default_config.Spice_ref.t_stop
        (Spice_ref.default_config.Spice_ref.t_start +. (3.0 *. estimate))
    in
    let config =
      { Spice_ref.default_config with
        Spice_ref.sleep;
        t_stop;
        newton_budget = ctx.Eval.Ctx.newton_budget;
        fast = ctx.Eval.Ctx.fast }
    in
    worst_delay_spice ?cache ~obs ~config ~bp_config
      ?stats:ctx.Eval.Ctx.stats ~jobs:ctx.Eval.Ctx.jobs c vectors

(* the context and the ideal-ground delay every degradation is
   relative to *)
let baseline ?(ctx = Eval.Ctx.default) c vectors =
  if vectors = [] then invalid_arg "Sizing: empty vector list";
  (ctx, fst (worst_delay_ctx ctx c ~sleep:BP.Cmos vectors))

let cmos_delay ?ctx c ~vectors = snd (baseline ?ctx c vectors)

let measurement_at (ctx : Eval.Ctx.t) c ~base ~wl vectors =
  let d, vx = worst_delay_ctx ctx c ~sleep:(footer_at c ~wl) vectors in
  { wl;
    cmos_delay = base;
    mtcmos_delay = d;
    degradation = (d -. base) /. base;
    vx_peak = vx }

let delay_at ?ctx c ~vectors ~wl =
  let ctx, base = baseline ?ctx c vectors in
  measurement_at ctx c ~base ~wl vectors

let sweep ?(ctx = Eval.Ctx.default) c ~vectors ~wls =
  if vectors = [] then invalid_arg "Sizing: empty vector list";
  Obs.Span.with_ ctx.Eval.Ctx.obs "sizing.sweep" @@ fun () ->
  (* the shared CMOS baseline is measured once, sequentially *)
  let base =
    fst
      (worst_delay_ctx
         { ctx with Eval.Ctx.jobs = 1 }
         c ~sleep:BP.Cmos vectors)
  in
  (* parallelise across W/L points (each is an independent worst-delay
     measurement); inner per-vector loops stay sequential so one sweep
     spawns at most [jobs] domains.  Results land in index order, so
     the list is identical whatever [jobs] is. *)
  let wl_arr = Array.of_list wls in
  let ms =
    Par.Pool.map_stateful ~obs:ctx.Eval.Ctx.obs ~jobs:ctx.Eval.Ctx.jobs
      ~chunk:1
      ~create:(fun () -> Eval.Ctx.worker ctx)
      ~merge:(fun w -> Eval.Ctx.merge_worker ~into:ctx w)
      (Array.length wl_arr)
      (fun wctx i -> measurement_at wctx c ~base ~wl:wl_arr.(i) vectors)
  in
  Array.to_list ms

let size_for_degradation ?ctx ?(wl_hi = 4096.0) c ~vectors ~target =
  check_target target;
  let ctx, base = baseline ?ctx c vectors in
  (* a zero baseline makes every degradation NaN, which would steer the
     bisection to wl_hi *)
  if base = 0.0 then
    failwith
      "the vectors switch no output (ideal-ground delay 0), so \
       degradation is undefined";
  let feasible =
    match ctx.Eval.Ctx.engine with
    | Eval.Breakpoint ->
      let meets =
        feasibility_cached ?cache:ctx.Eval.Ctx.cache ~obs:ctx.Eval.Ctx.obs c
          vectors ~base ~target
      in
      fun wl -> meets (bp_config ctx ~sleep:(footer_at c ~wl))
    | Eval.Spice_level ->
      (* per-vector resilience counters and parallel vectors: every
         vector is simulated at every probe *)
      fun wl ->
        within ~base ~target
          (fst (worst_delay_ctx ctx c ~sleep:(footer_at c ~wl) vectors))
  in
  if not (feasible wl_hi) then raise Not_found;
  smallest_feasible ~lo:0.5 ~hi:wl_hi feasible

(* a W/L below 0.05 would print as 0.0 at one decimal: give it
   significant digits instead *)
let pp_measurement fmt m =
  Format.fprintf fmt
    "W/L=%s  cmos=%s  mtcmos=%s  degradation=%5.1f%%  vx_peak=%s"
    (if m.wl >= 0.05 then Printf.sprintf "%7.1f" m.wl
     else Printf.sprintf "%7.3g" m.wl)
    (Phys.Units.to_eng_string ~unit:"s" m.cmos_delay)
    (Phys.Units.to_eng_string ~unit:"s" m.mtcmos_delay)
    (100.0 *. m.degradation)
    (Phys.Units.to_eng_string ~unit:"V" m.vx_peak)
