exception No_convergence of string

type record = All | Nodes of Netlist.Transistor.node list

module Opts = struct
  type fast = [ `Off | `Reduce_bypass ]

  type t = {
    dt : float option;
    record : record;
    uic : bool;
    fast : fast;
    newton_budget : int option;
  }

  let default =
    { dt = None; record = All; uic = false; fast = `Off;
      newton_budget = None }

  let with_dt dt t = { t with dt = Some dt }
  let with_record record t = { t with record }
  let with_uic uic t = { t with uic }
  let with_fast fast t = { t with fast }
  let with_newton_budget newton_budget t = { t with newton_budget }

  let fast_of_string s =
    match String.lowercase_ascii s with
    | "off" -> Ok `Off
    | "reduce-bypass" | "reduce_bypass" -> Ok `Reduce_bypass
    | other ->
      Error
        (Printf.sprintf
           "unknown fast mode %S (expected \"off\" or \"reduce-bypass\")"
           other)
end

(* Fixed solver constants.  [max_newton] bounds each nominal transient
   step and each step-halving retry.  The recovery ladders: a failed DC
   direct solve ([direct_max_iter] iterations) falls back to a gmin ramp
   from [gmin_start] down a decade per rung to the 1e-12 floor, each
   rung warm-started and given [ladder_max_iter] iterations (an
   [Opts.newton_budget] replaces both DC budgets); a rejected transient
   step is retried at up to [max_step_halvings] successive halvings.
   The rest tune the [`Reduce_bypass] path: the terminal-voltage
   quiescence threshold of the device bypass, in volts, and the relative
   and absolute (volts) bands of the LTE step controller. *)
let max_newton = 40
let direct_max_iter = 150
let ladder_max_iter = 200
let gmin_start = 1e-3
let max_step_halvings = 14
let bypass_vtol = 2e-4
let lte_rel = 0.02
let lte_abs = 5e-4

(* Device-bypass cache: last-stamped terminal voltages and linearisation
   per MOS, so a quiescent device skips its model evaluation. *)
type bypass = {
  bv : float array;        (* 4 per device: vd vg vs vb *)
  bs : float array;        (* 4 per device: gm gds gmb ieq *)
  bvalid : Bytes.t;
  mutable benabled : bool;
  (* lifetime telemetry, kept as plain ints because [assemble] is the
     innermost hot loop and carries no obs handle; the transient flush
     snapshots these at entry and publishes the per-analysis deltas *)
  mutable n_hits : int;    (* cached linearisation reused *)
  mutable n_miss : int;    (* fresh model evaluation while enabled *)
  mutable n_inval : int;   (* a previously-valid entry refreshed
                              because its terminals moved past vtol *)
}

type t = {
  sys : Mna.system;
  matrix : La.Sparse.matrix;
  rhs : float array;
  opts : Opts.t;
  bypass : bypass option;
}

let prepare ?(opts = Opts.default) netlist =
  (match opts.Opts.newton_budget with
   | Some n when n <= 0 -> invalid_arg "Engine.prepare: newton_budget <= 0"
   | Some _ | None -> ());
  let sys = Mna.prepare netlist in
  let bypass =
    if opts.Opts.fast = `Reduce_bypass then begin
      let n_mos =
        Array.fold_left
          (fun acc e ->
            match e with
            | Mna.P_mos _ -> acc + 1
            | Mna.P_res _ | Mna.P_cap _ | Mna.P_vsrc _ -> acc)
          0 sys.Mna.elems
      in
      Some
        { bv = Array.make (4 * n_mos) 0.0;
          bs = Array.make (4 * n_mos) 0.0;
          bvalid = Bytes.make (Stdlib.max 1 n_mos) '\000';
          benabled = false;
          n_hits = 0;
          n_miss = 0;
          n_inval = 0 }
    end
    else None
  in
  { sys;
    matrix = La.Sparse.create_matrix sys.Mna.pattern;
    rhs = Array.make sys.Mna.n_unknowns 0.0;
    opts;
    bypass }

let system t = t.sys

(* Default transient step: the historical [t_stop / 2000] ceiling,
   refined downward to half the fastest explicit RC time constant (so a
   large [t_stop] cannot silently under-resolve a fast node), floored to
   keep the step count bounded. *)
let default_dt t ~t_stop =
  let base = t_stop /. 2000.0 in
  match t.sys.Mna.tau_min with
  | None -> base
  | Some tau ->
    Float.max (t_stop /. 50000.0) (Float.min base (tau /. 2.0))

let cap_voltage (c : Mna.two_pin) x =
  let va = if c.Mna.ua >= 0 then x.(c.Mna.ua) else 0.0 in
  let vb = if c.Mna.ub2 >= 0 then x.(c.Mna.ub2) else 0.0 in
  va -. vb

let stamp m slot v = if slot >= 0 then m.La.Sparse.values.(slot) <- m.La.Sparse.values.(slot) +. v

let add_rhs rhs u v = if u >= 0 then rhs.(u) <- rhs.(u) +. v

(* Assemble J and b = J x - F for the trial point [x].  [cap] = None in
   DC mode; in a transient it is the step [h] and every capacitor's
   voltage at the last accepted step, for the Backward-Euler companions. *)
let assemble t ~x ~gmin ~time ~(cap : (float * float array) option) =
  let m = t.matrix and rhs = t.rhs and sys = t.sys in
  La.Sparse.clear m;
  Array.fill rhs 0 (Array.length rhs) 0.0;
  (* gmin to ground on every node unknown *)
  Array.iter (fun s -> m.La.Sparse.values.(s) <- m.La.Sparse.values.(s) +. gmin)
    sys.Mna.gmin_slots;
  let vat u = if u >= 0 then x.(u) else 0.0 in
  let cap_index = ref 0 in
  let mos_index = ref 0 in
  Array.iter
    (fun e ->
      match e with
      | Mna.P_res r ->
        let g = r.Mna.value in
        stamp m r.Mna.saa g;
        stamp m r.Mna.sbb g;
        stamp m r.Mna.sab (-.g);
        stamp m r.Mna.sba (-.g)
      | Mna.P_cap c ->
        let k = !cap_index in
        incr cap_index;
        (match cap with
         | None -> ()
         | Some (h, v_prev) ->
           let geq = c.Mna.value /. h in
           let ieq = geq *. v_prev.(k) in
           stamp m c.Mna.saa geq;
           stamp m c.Mna.sbb geq;
           stamp m c.Mna.sab (-.geq);
           stamp m c.Mna.sba (-.geq);
           add_rhs rhs c.Mna.ua ieq;
           add_rhs rhs c.Mna.ub2 (-.ieq))
      | Mna.P_vsrc v ->
        stamp m v.Mna.spb 1.0;
        stamp m v.Mna.snb (-1.0);
        stamp m v.Mna.sbp 1.0;
        stamp m v.Mna.sbn (-1.0);
        (* tiny source resistance regularises the otherwise zero branch
           diagonal: the LU runs without pivoting *)
        stamp m v.Mna.sbr 1e-9;
        rhs.(v.Mna.ubr) <-
          rhs.(v.Mna.ubr) +. Phys.Pwl.value_at v.Mna.wave time
      | Mna.P_mos d ->
        let vd = vat d.Mna.ud and vg = vat d.Mna.ug in
        let vs = vat d.Mna.us and vb = vat d.Mna.ub in
        let k = !mos_index in
        incr mos_index;
        let gm, gds, gmb, ieq =
          let fresh () =
            let bias =
              { Device.Mosfet.vgs = vg -. vs; vds = vd -. vs; vbs = vb -. vs }
            in
            let op = Device.Mosfet.eval d.Mna.params ~wl:d.Mna.wl bias in
            let gm = op.Device.Mosfet.gm
            and gds = op.Device.Mosfet.gds
            and gmb = op.Device.Mosfet.gmb in
            (* linearised current: ids ~ ieq + gm vgs + gds vds + gmb vbs *)
            let ieq =
              op.Device.Mosfet.ids
              -. (gm *. bias.Device.Mosfet.vgs)
              -. (gds *. bias.Device.Mosfet.vds)
              -. (gmb *. bias.Device.Mosfet.vbs)
            in
            (gm, gds, gmb, ieq)
          in
          match t.bypass with
          | Some bp when bp.benabled ->
            let b = 4 * k in
            if
              Bytes.unsafe_get bp.bvalid k = '\001'
              && Float.abs (vd -. bp.bv.(b)) < bypass_vtol
              && Float.abs (vg -. bp.bv.(b + 1)) < bypass_vtol
              && Float.abs (vs -. bp.bv.(b + 2)) < bypass_vtol
              && Float.abs (vb -. bp.bv.(b + 3)) < bypass_vtol
            then begin
              bp.n_hits <- bp.n_hits + 1;
              (bp.bs.(b), bp.bs.(b + 1), bp.bs.(b + 2), bp.bs.(b + 3))
            end
            else begin
              bp.n_miss <- bp.n_miss + 1;
              if Bytes.unsafe_get bp.bvalid k = '\001' then
                bp.n_inval <- bp.n_inval + 1;
              let (gm, gds, gmb, ieq) as r = fresh () in
              bp.bv.(b) <- vd;
              bp.bv.(b + 1) <- vg;
              bp.bv.(b + 2) <- vs;
              bp.bv.(b + 3) <- vb;
              bp.bs.(b) <- gm;
              bp.bs.(b + 1) <- gds;
              bp.bs.(b + 2) <- gmb;
              bp.bs.(b + 3) <- ieq;
              Bytes.unsafe_set bp.bvalid k '\001';
              r
            end
          | Some _ | None -> fresh ()
        in
        let gs = -.(gm +. gds +. gmb) in
        stamp m d.Mna.sdd gds;
        stamp m d.Mna.sdg gm;
        stamp m d.Mna.sdb gmb;
        stamp m d.Mna.sds gs;
        stamp m d.Mna.ssd (-.gds);
        stamp m d.Mna.ssg (-.gm);
        stamp m d.Mna.ssb (-.gmb);
        stamp m d.Mna.sss (-.gs);
        add_rhs rhs d.Mna.ud (-.ieq);
        add_rhs rhs d.Mna.us ieq)
    sys.Mna.elems

let v_limit = 0.5

(* fast-transient mode as a gauge value, so reports can name the mode
   a registry was recorded under (0 = off, 2 = bypass) *)
let fast_gauge = function
  | `Off -> 0.0
  | `Reduce_bypass -> 2.0

(* accepted LTE step sizes, as a ratio to the nominal dt; the stepper
   ranges over [dt/16, 64*dt], so the edges cover it exactly *)
let lte_step_buckets =
  [| 0.0625; 0.125; 0.25; 0.5; 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 |]

(* Branch-current deltas are folded into the shared convergence scalar
   with this scale: 1e-3 A maps to one "volt-equivalent", so the 1e-6
   tolerance accepts branch currents settled to ~1 nA (plus a relative
   term for large currents). *)
let i_scale = 1e-3

(* One Newton solve at fixed time/companion state. *)
type newton_outcome =
  | N_converged of float array
  | N_singular
  | N_nonfinite
  | N_exhausted

let kind_of_outcome = function
  | N_singular -> Diag.Singular_matrix
  | N_nonfinite -> Diag.Nan_in_solution
  | N_exhausted | N_converged _ -> Diag.Newton_divergence

let newton_solve t ~x0 ~gmin ~time ~cap ~max_iter
    ~(tm : Diag.telemetry) =
  let n = t.sys.Mna.n_unknowns in
  let nn = t.sys.Mna.n_node_unknowns in
  let x = Array.copy x0 in
  let prev_delta = ref infinity in
  let rec loop iter =
    if iter >= max_iter then N_exhausted
    else begin
      tm.Diag.newton_iterations <- tm.Diag.newton_iterations + 1;
      assemble t ~x ~gmin ~time ~cap;
      tm.Diag.factorizations <- tm.Diag.factorizations + 1;
      match La.Sparse.factor t.sys.Mna.symbolic t.matrix with
      | exception La.Sparse.Singular _ -> N_singular
      | num ->
        let x_new = La.Sparse.solve num t.rhs in
        (* one pass of iterative refinement cleans up pivot noise from the
           static (non-pivoted) factorisation *)
        let x_new =
          let ax = La.Sparse.mul_vec t.matrix x_new in
          let r = Array.mapi (fun i b -> b -. ax.(i)) t.rhs in
          let dx = La.Sparse.solve num r in
          Array.mapi (fun i v -> v +. dx.(i)) x_new
        in
        let ok = ref true in
        let delta = ref 0.0 in
        for i = 0 to n - 1 do
          if not (Float.is_finite x_new.(i)) then ok := false
        done;
        if not !ok then N_nonfinite
        else begin
          (* voltage limiting on node unknowns *)
          for i = 0 to nn - 1 do
            let d = x_new.(i) -. x.(i) in
            let d_lim = Phys.Float_utils.clamp ~lo:(-.v_limit) ~hi:v_limit d in
            delta := Float.max !delta (Float.abs d);
            x.(i) <- x.(i) +. d_lim
          done;
          (* branch-current unknowns take part in the convergence test
             too (current-scaled), so a still-moving source current can
             no longer be accepted as converged *)
          for i = nn to n - 1 do
            let d = Float.abs (x_new.(i) -. x.(i)) in
            delta := Float.max !delta (d /. (i_scale +. Float.abs x_new.(i)));
            x.(i) <- x_new.(i)
          done;
          (* converged, or stalled in a sub-10uV limit cycle at a model
             region boundary (SPICE's vntol-style acceptance) *)
          let stalled =
            !delta < 1e-5 && Float.abs (!delta -. !prev_delta) < 1e-10
          in
          prev_delta := !delta;
          if !delta < 1e-6 || stalled then N_converged x else loop (iter + 1)
        end
    end
  in
  loop 0

(* KCL residual F(x) = J x - b at a trial point: the node with the
   largest magnitude names the spot where Newton was stuck. *)
let worst_residual t ~x ~gmin ~time ~cap =
  assemble t ~x ~gmin ~time ~cap;
  let ax = La.Sparse.mul_vec t.matrix x in
  let nn = t.sys.Mna.n_node_unknowns in
  let worst = ref 0.0 and worst_i = ref (-1) in
  for i = 0 to nn - 1 do
    let r = Float.abs (ax.(i) -. t.rhs.(i)) in
    if Float.is_finite r && r > !worst then begin
      worst := r;
      worst_i := i
    end
  done;
  if !worst_i < 0 then (None, 0.0)
  else begin
    let name = ref None in
    Array.iteri
      (fun node u ->
        if u = !worst_i && !name = None then
          name := Some (Netlist.Transistor.node_name t.sys.Mna.netlist node))
      t.sys.Mna.unknown_of_node;
    (!name, !worst)
  end

let dc_r ?x0 ?telemetry ?(obs = Obs.disabled) t =
  let time = 0.0 in
  let direct_iter, rung_iter =
    match t.opts.Opts.newton_budget with
    | Some n -> (n, n)
    | None -> (direct_max_iter, ladder_max_iter)
  in
  let tm =
    match telemetry with Some v -> v | None -> Diag.create_telemetry ()
  in
  (* counter deltas are attributed to this analysis: snapshot at entry,
     flush once at exit.  A transient's nested operating-point solve is
     called with [Obs.spans_only], so its effort is flushed exactly
     once — by the enclosing transient (see transient_r). *)
  let nw0 = tm.Diag.newton_iterations and fc0 = tm.Diag.factorizations in
  let gm0 = tm.Diag.gmin_rounds in
  let flush ~failed =
    if Obs.metrics_on obs then begin
      Obs.incr obs "spice.dc.analyses";
      if failed then Obs.incr obs "spice.dc.failures";
      Obs.incr obs ~by:(tm.Diag.newton_iterations - nw0)
        "spice.newton_iterations";
      Obs.incr obs ~by:(tm.Diag.factorizations - fc0) "spice.factorizations";
      Obs.incr obs ~by:(tm.Diag.gmin_rounds - gm0) "spice.gmin_rounds";
      Obs.set_gauge obs "spice.fast_mode" (fast_gauge t.opts.Opts.fast);
      Obs.observe obs "spice.newton_per_analysis"
        (float_of_int (tm.Diag.newton_iterations - nw0))
    end
  in
  Obs.Span.with_ obs "spice.dc"
    ~args:(fun () ->
      [ ("newton", float_of_int (tm.Diag.newton_iterations - nw0));
        ("factorizations", float_of_int (tm.Diag.factorizations - fc0)) ])
  @@ fun () ->
  let wall0 = Obs.Clock.now () in
  let n = t.sys.Mna.n_unknowns in
  let start =
    match x0 with
    | Some v when Array.length v = n -> Array.copy v
    | Some _ | None -> Array.make n 0.0
  in
  let last = ref N_exhausted in
  let run ~x0 ~gmin ~max_iter =
    match newton_solve t ~x0 ~gmin ~time ~cap:None ~max_iter ~tm with
    | N_converged x -> Some x
    | o ->
      last := o;
      None
  in
  let finish x =
    tm.Diag.wall_s <- tm.Diag.wall_s +. Obs.Clock.elapsed_since wall0;
    flush ~failed:false;
    Ok x
  in
  match run ~x0:start ~gmin:1e-12 ~max_iter:direct_iter with
  | Some x -> finish x
  | None ->
    (* gmin stepping, warm-started from the supplied guess *)
    let rec ramp gmin x =
      if gmin < 1e-12 then run ~x0:x ~gmin:1e-12 ~max_iter:rung_iter
      else begin
        tm.Diag.gmin_rounds <- tm.Diag.gmin_rounds + 1;
        match run ~x0:x ~gmin ~max_iter:rung_iter with
        | Some x' -> ramp (gmin /. 10.0) x'
        | None -> None
      end
    in
    (match ramp gmin_start start with
     | Some x ->
       Diag.record_recovery tm "gmin-ramp";
       finish x
     | None ->
       let node, res =
         worst_residual t ~x:start ~gmin:1e-12 ~time ~cap:None
       in
       tm.Diag.wall_s <- tm.Diag.wall_s +. Obs.Clock.elapsed_since wall0;
       flush ~failed:true;
       Error
         { Diag.analysis = Diag.Dc;
           kind = kind_of_outcome !last;
           time;
           last_good_time = 0.0;
           worst_residual_node = node;
           worst_residual = res;
           newton_iterations = tm.Diag.newton_iterations;
           recovery_attempts = [ "gmin-ramp" ];
           message = "" })

let initial_guess t assignments =
  let x = Array.make t.sys.Mna.n_unknowns 0.0 in
  List.iter
    (fun (node, v) ->
      let u = t.sys.Mna.unknown_of_node.(node) in
      if u >= 0 then x.(u) <- v)
    assignments;
  x

let voltage t x node =
  let u = t.sys.Mna.unknown_of_node.(node) in
  if u >= 0 then x.(u) else 0.0

type result = {
  recorded : (Netlist.Transistor.node, (float * float) list ref) Hashtbl.t;
  netlist : Netlist.Transistor.t;
  mutable final_x : float array;
  mutable n_newton : int;
  mutable tele : Diag.telemetry;
}

exception Abort of Diag.failure

(* Ascending source-waveform breakpoint times inside (0, t_stop): the
   LTE stepper never strides across one, so an input ramp corner is
   always a step boundary even at large quiescent steps. *)
let source_breakpoints sys ~t_stop =
  let ts =
    Array.fold_left
      (fun acc e ->
        match e with
        | Mna.P_vsrc v ->
          List.fold_left
            (fun acc (tp, _) ->
              if tp > 0.0 && tp < t_stop then tp :: acc else acc)
            acc
            (Phys.Pwl.points v.Mna.wave)
        | Mna.P_mos _ | Mna.P_res _ | Mna.P_cap _ -> acc)
      [] sys.Mna.elems
  in
  Array.of_list (List.sort_uniq compare ts)

let transient_r ?x0 ?telemetry ?(obs = Obs.disabled) t ~t_stop =
  if t_stop <= 0.0 then invalid_arg "Engine.transient: t_stop <= 0";
  let { Opts.dt; record; uic; fast; newton_budget = _ } = t.opts in
  let dt = match dt with Some d -> d | None -> default_dt t ~t_stop in
  if dt <= 0.0 then invalid_arg "Engine.transient: dt <= 0";
  if dt > t_stop then invalid_arg "Engine.transient: dt > t_stop";
  (* the full fast mode steps under the LTE controller; otherwise every
     step is the nominal [dt] *)
  let lte = fast = `Reduce_bypass in
  let tm =
    match telemetry with Some v -> v | None -> Diag.create_telemetry ()
  in
  let wall0 = Obs.Clock.now () in
  let iters0 = tm.Diag.newton_iterations in
  (* nested operating-point solves trace their own spans but must not
     flush counters a second time: the whole-transient deltas below
     already include them *)
  let obs_nested = Obs.spans_only obs in
  let fc0 = tm.Diag.factorizations and sr0 = tm.Diag.step_rejections in
  let gm0 = tm.Diag.gmin_rounds in
  (* fast-path telemetry, accumulated in plain refs on the hot path and
     published once per analysis by [flush] (same delta discipline as
     the Diag counters, so an engine reused across analyses never
     double-counts) *)
  let lte_accepted = ref 0 and lte_rejected = ref 0 in
  let bp_clamps = ref 0 in
  let bp0 =
    match t.bypass with
    | Some bp -> (bp.n_hits, bp.n_miss, bp.n_inval)
    | None -> (0, 0, 0)
  in
  let flush ~failed =
    if Obs.metrics_on obs then begin
      Obs.incr obs "spice.transient.analyses";
      if failed then Obs.incr obs "spice.transient.failures";
      Obs.incr obs ~by:(tm.Diag.newton_iterations - iters0)
        "spice.newton_iterations";
      Obs.incr obs ~by:(tm.Diag.factorizations - fc0) "spice.factorizations";
      Obs.incr obs ~by:(tm.Diag.step_rejections - sr0)
        "spice.step_rejections";
      Obs.incr obs ~by:(tm.Diag.gmin_rounds - gm0) "spice.gmin_rounds";
      Obs.set_gauge obs "spice.fast_mode" (fast_gauge fast);
      if lte then begin
        Obs.incr obs ~by:!lte_accepted "spice.lte.accepted_steps";
        Obs.incr obs ~by:!lte_rejected "spice.lte.rejected_steps";
        Obs.incr obs ~by:!bp_clamps "spice.lte.breakpoint_clamps"
      end;
      (match t.bypass with
       | Some bp ->
         let h0, m0, i0 = bp0 in
         Obs.incr obs ~by:(bp.n_hits - h0) "spice.bypass.hits";
         Obs.incr obs ~by:(bp.n_miss - m0) "spice.bypass.misses";
         Obs.incr obs ~by:(bp.n_inval - i0) "spice.bypass.invalidations"
       | None -> ());
      Obs.observe obs "spice.newton_per_analysis"
        (float_of_int (tm.Diag.newton_iterations - iters0))
    end
  in
  Obs.Span.with_ obs "spice.transient"
    ~args:(fun () ->
      [ ("newton", float_of_int (tm.Diag.newton_iterations - iters0));
        ("factorizations", float_of_int (tm.Diag.factorizations - fc0)) ])
  @@ fun () ->
  let sys = t.sys in
  (match t.bypass with
   | Some bp ->
     Bytes.fill bp.bvalid 0 (Bytes.length bp.bvalid) '\000';
     bp.benabled <- false
   | None -> ());
  try
    (* [uic]: trust the caller's initial condition (SPICE's .tran UIC) and
       let the L-stable integrator settle it; otherwise solve the true
       operating point *)
    let x =
      ref
        (match (uic, x0) with
         | true, Some v when Array.length v = sys.Mna.n_unknowns ->
           Array.copy v
         | true, (Some _ | None) -> Array.make sys.Mna.n_unknowns 0.0
         | false, _ ->
           (match
              dc_r ?x0 ~telemetry:tm ~obs:obs_nested t
            with
            | Ok x -> x
            | Error f ->
              raise
                (Abort
                   { f with
                     Diag.message = "transient initial operating point" })))
    in
    let caps = sys.Mna.caps in
    let ncap = Array.length caps in
    (* voltage across each cap at the last accepted step *)
    let v_prev = Array.init ncap (fun k -> cap_voltage caps.(k) !x) in
    let nodes_to_record =
      match record with
      | All ->
        List.init (Netlist.Transistor.num_nodes sys.Mna.netlist) (fun i -> i)
      | Nodes l -> List.sort_uniq compare l
    in
    let recorded = Hashtbl.create 64 in
    List.iter (fun n -> Hashtbl.replace recorded n (ref [])) nodes_to_record;
    let sample time =
      List.iter
        (fun n ->
          let cell = Hashtbl.find recorded n in
          cell := (time, voltage t !x n) :: !cell)
        nodes_to_record
    in
    sample 0.0;
    let res =
      { recorded; netlist = sys.Mna.netlist; final_x = !x;
        n_newton = 0; tele = tm }
    in
    let time = ref 0.0 in
    (* LTE step control, bounded to [dt/16, 64*dt] around the nominal
       step (see the local-truncation-error test below) *)
    let dt_now = ref dt in
    let dt_min = dt /. 16.0 in
    let dt_max = 64.0 *. dt in
    let breakpoints =
      if lte then source_breakpoints sys ~t_stop else [||]
    in
    let bp_idx = ref 0 in
    (* LTE predictor history: the previous accepted solution and step *)
    let x_prev = ref [||] in
    let h_prev = ref 0.0 in
    (* device bypass activates only for the time stepping; the initial
       operating point above always runs full model evaluations *)
    (match t.bypass with Some bp -> bp.benabled <- true | None -> ());
    let last = ref N_exhausted in
    (* one solve attempt for the next step; failures count as rejections *)
    let solve ~h ~x0 ~gmin ~max_iter =
      let t_next = Float.min (!time +. h) t_stop in
      let h_eff = t_next -. !time in
      match
        newton_solve t ~x0 ~gmin ~time:t_next ~cap:(Some (h_eff, v_prev))
          ~max_iter ~tm
      with
      | N_converged x' -> Some (x', t_next, h_eff)
      | o ->
        tm.Diag.step_rejections <- tm.Diag.step_rejections + 1;
        last := o;
        None
    in
    (* the per-step recovery ladder: the nominal attempt, then up to
       [max_step_halvings] successive halvings of the step *)
    let step h_step =
      match solve ~h:h_step ~x0:!x ~gmin:1e-12 ~max_iter:max_newton with
      | Some s -> s
      | None ->
        let rec halve h k =
          if k > max_step_halvings then None
          else
            match solve ~h ~x0:!x ~gmin:1e-12 ~max_iter:max_newton with
            | Some s -> Some s
            | None -> halve (h /. 2.0) (k + 1)
        in
        (match halve (h_step /. 2.0) 1 with
         | Some s ->
           Diag.record_recovery tm "shrink-step";
           s
         | None ->
           let kind =
             if !last = N_exhausted then Diag.Step_underflow
             else kind_of_outcome !last
           in
           let t_next = Float.min (!time +. h_step) t_stop in
           let node, res_worst =
             worst_residual t ~x:!x ~gmin:1e-12 ~time:t_next
               ~cap:(Some (t_next -. !time, v_prev))
           in
           raise
             (Abort
                { Diag.analysis = Diag.Transient;
                  kind;
                  time = t_next;
                  last_good_time = !time;
                  worst_residual_node = node;
                  worst_residual = res_worst;
                  newton_iterations = tm.Diag.newton_iterations;
                  recovery_attempts = [ "shrink-step" ];
                  message = "" }))
    in
    (* never stride across a source-waveform corner in LTE mode *)
    let clamp_to_breakpoint h =
      if not lte then h
      else begin
        while
          !bp_idx < Array.length breakpoints
          && breakpoints.(!bp_idx) <= !time +. (dt_min *. 1e-3)
        do
          incr bp_idx
        done;
        if !bp_idx < Array.length breakpoints then begin
          let tb = breakpoints.(!bp_idx) in
          if !time +. h > tb then begin
            incr bp_clamps;
            Float.max dt_min (tb -. !time)
          end
          else h
        end
        else h
      end
    in
    (* accept a solved step: companion-state update, history, sampling *)
    let accept (x', t_next, h_eff) =
      for k = 0 to ncap - 1 do
        v_prev.(k) <- cap_voltage caps.(k) x'
      done;
      if lte then begin
        if Array.length !x_prev = 0 then x_prev := Array.copy !x
        else Array.blit !x 0 !x_prev 0 (Array.length !x);
        h_prev := h_eff
      end;
      x := x';
      time := t_next;
      sample !time
    in
    let nn = sys.Mna.n_node_unknowns in
    (* normalised LTE estimate: forward-Euler predictor from the last
       two accepted points vs the solved point, over node unknowns *)
    let lte_err x' h_eff =
      if !h_prev <= 0.0 then 0.0
      else begin
        let ratio = h_eff /. !h_prev in
        let err = ref 0.0 in
        let xp = !x_prev and xc = !x in
        for i = 0 to nn - 1 do
          let pred = xc.(i) +. (ratio *. (xc.(i) -. xp.(i))) in
          let tol =
            (lte_rel *. Float.max (Float.abs x'.(i)) (Float.abs xc.(i)))
            +. lte_abs
          in
          err := Float.max !err (Float.abs (x'.(i) -. pred) /. tol)
        done;
        !err
      end
    in
    while !time < t_stop -. (dt_min *. 1e-6) do
      if lte then begin
        (* LTE-controlled step: solve, estimate the truncation error
           against the predictor, reject-and-shrink while it exceeds
           the band, then rescale the next step from the error *)
        let rec attempt h tries =
          let h = clamp_to_breakpoint h in
          let ((x', _, h_eff) as s) = step h in
          let err = lte_err x' h_eff in
          if err > 1.0 && h_eff > dt_min *. 1.000001 && tries < 8 then begin
            tm.Diag.step_rejections <- tm.Diag.step_rejections + 1;
            incr lte_rejected;
            let shrink =
              Phys.Float_utils.clamp ~lo:0.1 ~hi:0.5
                (0.9 /. Float.sqrt err)
            in
            attempt (Float.max dt_min (h_eff *. shrink)) (tries + 1)
          end
          else begin
            accept s;
            incr lte_accepted;
            Obs.observe ~buckets:lte_step_buckets obs "spice.lte.step_ratio"
              (h_eff /. dt);
            let grow =
              if err <= 0.0 then 2.0
              else
                Phys.Float_utils.clamp ~lo:0.5 ~hi:2.0
                  (0.9 /. Float.sqrt err)
            in
            dt_now :=
              Phys.Float_utils.clamp ~lo:dt_min ~hi:dt_max (h_eff *. grow)
          end
        in
        attempt !dt_now 0
      end
      else accept (step dt)
    done;
    res.final_x <- !x;
    res.n_newton <- tm.Diag.newton_iterations - iters0;
    tm.Diag.wall_s <- tm.Diag.wall_s +. Obs.Clock.elapsed_since wall0;
    (match t.bypass with Some bp -> bp.benabled <- false | None -> ());
    flush ~failed:false;
    Ok res
  with Abort f ->
    (match t.bypass with Some bp -> bp.benabled <- false | None -> ());
    tm.Diag.wall_s <- tm.Diag.wall_s +. Obs.Clock.elapsed_since wall0;
    flush ~failed:true;
    Error f

let waveform res node =
  match Hashtbl.find_opt res.recorded node with
  | Some cell -> Phys.Pwl.create (List.rev !cell)
  | None -> raise Not_found

let final_solution res = res.final_x
let newton_iterations res = res.n_newton
let telemetry res = res.tele
