module C = Netlist.Circuit

type objective = Leakage | Area | Mixed

let objective_of_string = function
  | "leakage" -> Some Leakage
  | "area" -> Some Area
  | "mixed" -> Some Mixed
  | _ -> None

let objective_name = function
  | Leakage -> "leakage"
  | Area -> "area"
  | Mixed -> "mixed"

type result = {
  vt_high : bool array;
  cluster_of_gate : int array;
  sleep_wl : float array;
  members : int array array;
  base_delay : float;
  budget : float;
  arrival : float;
  slack : float;
  leakage : float;
  ungated_leakage : float;
  area : float;
  objective : objective;
  objective_value : float;
  evaluations : int;
  flips_to_low : int;
  reclaimed : int;
  moves : int;
}

let gating ~vt_high ~cluster_of_gate ~sleep_wl =
  { Sta.vt_high; block_of_gate = cluster_of_gate; sleep_wl }

(* A circuit's per-gate standby terms: pull-down W/L and its off-current
   on either Vt card. *)
type leak_terms = {
  tech : Device.Tech.t;
  pd : float array;
  off_high : float array;  (* high-Vt cell on the real ground *)
  off_low : float array;   (* low-Vt cell on no device *)
}

let leak_terms circuit =
  let tech = C.tech circuit in
  let vdd = tech.Device.Tech.vdd in
  let pd =
    Array.map
      (fun (g : C.gate_inst) ->
        (Netlist.Gate.drive tech ~strength:g.C.strength g.C.kind)
          .Netlist.Gate.wl_pull_down)
      (C.gates circuit)
  in
  let off card =
    Array.map (fun wl -> Device.Leakage.off_current card ~wl ~vdd) pd
  in
  { tech; pd;
    off_high = off tech.Device.Tech.sleep_nmos;
    off_low = off tech.Device.Tech.nmos }

(* standby current of a cluster's low-Vt pull-down width [low_w] behind
   a device of W/L [wl] *)
let stack_current tech ~low_w ~wl =
  let vdd = tech.Device.Tech.vdd in
  if wl > 0.0 then
    snd
      (Device.Leakage.standby_comparison ~low_vt:tech.Device.Tech.nmos
         ~high_vt:tech.Device.Tech.sleep_nmos ~total_width_wl:low_w
         ~sleep_wl:wl ~vdd)
  else
    (* a device-less cluster leaves its low-Vt gates ungated *)
    Device.Leakage.off_current tech.Device.Tech.nmos ~wl:low_w ~vdd

let leakage_with lt ~stack ~vt_high ~cluster_of_gate ~sleep_wl =
  let low_w = Array.make (Array.length sleep_wl) 0.0 in
  let ungrouped = ref 0.0 in
  Array.iteri
    (fun i w ->
      if vt_high.(i) then ungrouped := !ungrouped +. lt.off_high.(i)
      else
        let c = cluster_of_gate.(i) in
        if c >= 0 then low_w.(c) <- low_w.(c) +. w
        else ungrouped := !ungrouped +. lt.off_low.(i))
    lt.pd;
  let gated = ref 0.0 in
  Array.iteri
    (fun c wl ->
      if low_w.(c) > 0.0 then gated := !gated +. stack ~low_w:low_w.(c) ~wl)
    sleep_wl;
  !gated +. !ungrouped

let standby_leakage circuit =
  let lt = leak_terms circuit in
  leakage_with lt ~stack:(stack_current lt.tech)

(* [stack_current] behind an exact direct-mapped memo on (low-Vt width
   bits, W/L bits), indexed like [Sta]'s equilibrium memo: a tentative
   move changes one or two clusters, the others price from the memo. *)
let stack_memo_bits = 8

let memo_stack_current tech =
  let size = 1 lsl stack_memo_bits in
  let key_w = Array.make size Float.nan and key_wl = Array.make size 0.0 in
  let current = Array.make size 0.0 in
  let bits x = Int64.to_int (Int64.bits_of_float x) in
  fun ~low_w ~wl ->
    let h =
      (((bits low_w * 0x1E3779B97F4A7C15) lxor bits wl) * 0x1E3779B97F4A7C15)
      lsr (Sys.int_size - stack_memo_bits)
    in
    if
      Int64.equal (Int64.bits_of_float key_w.(h)) (Int64.bits_of_float low_w)
      && Int64.equal (Int64.bits_of_float key_wl.(h)) (Int64.bits_of_float wl)
    then current.(h)
    else begin
      let i = stack_current tech ~low_w ~wl in
      key_w.(h) <- low_w;
      key_wl.(h) <- wl;
      current.(h) <- i;
      i
    end

(* total silicon area of the cluster devices, [sum (wl *. lmin^2)] *)
let sleep_area circuit ~sleep_wl =
  let lmin = (C.tech circuit).Device.Tech.lmin in
  Array.fold_left
    (fun acc wl -> if wl > 0.0 then acc +. (wl *. lmin *. lmin) else acc)
    0.0 sleep_wl

let ungated_leakage circuit =
  let tech = C.tech circuit in
  Device.Leakage.off_current tech.Device.Tech.nmos
    ~wl:(C.total_pulldown_wl circuit) ~vdd:tech.Device.Tech.vdd

let objective_value circuit obj =
  match obj with
  | Leakage -> fun ~leakage ~area:_ -> leakage
  | Area -> fun ~leakage:_ ~area -> area
  | Mixed ->
    let tech = C.tech circuit in
    let w = C.total_pulldown_wl circuit in
    let leak_norm =
      Device.Leakage.off_current tech.Device.Tech.sleep_nmos ~wl:w
        ~vdd:tech.Device.Tech.vdd
    in
    let area_norm = w *. tech.Device.Tech.lmin *. tech.Device.Tech.lmin in
    fun ~leakage ~area -> (leakage /. leak_norm) +. (area /. area_norm)

let timed timer ~vt_high ~cluster_of_gate ~sleep_wl =
  Sta.critical_arrival
    (Sta.analyze_with ~gating:(gating ~vt_high ~cluster_of_gate ~sleep_wl)
       timer)

let arrival circuit =
  let body_effect = Eval.Ctx.default.Eval.Ctx.body_effect in
  timed (Sta.prepare ~body_effect circuit)

let size_clusters_with ~eval ~wl_lo ~wl_hi circuit ~budget ~vt_high
    ~cluster_of_gate ~n_clusters =
  let n = C.num_gates circuit in
  let active = Array.make n_clusters false in
  for i = 0 to n - 1 do
    if (not vt_high.(i)) && cluster_of_gate.(i) >= 0 then
      active.(cluster_of_gate.(i)) <- true
  done;
  let wls =
    Array.init n_clusters (fun c -> if active.(c) then wl_hi else 0.0)
  in
  let feasible () =
    eval ~vt_high ~cluster_of_gate ~sleep_wl:wls <= budget
  in
  if not (feasible ()) then raise Not_found;
  let set_all w =
    Array.iteri (fun c a -> if a then wls.(c) <- w) active
  in
  let uniform =
    Sizing.smallest_feasible ~lo:wl_lo ~hi:wl_hi (fun w ->
        set_all w;
        feasible ())
  in
  set_all uniform;
  for _pass = 1 to 2 do
    for c = 0 to n_clusters - 1 do
      if active.(c) then begin
        let hi = wls.(c) in
        let w =
          Sizing.smallest_feasible ~lo:wl_lo ~hi (fun w ->
              wls.(c) <- w;
              feasible ())
        in
        wls.(c) <- w
      end
    done
  done;
  wls

let size_clusters ?(ctx = Eval.Ctx.default) ?(wl_lo = 0.5) ?(wl_hi = 4096.0)
    circuit ~budget ~vt_high ~cluster_of_gate ~n_clusters =
  let eval =
    timed (Sta.prepare ~body_effect:ctx.Eval.Ctx.body_effect circuit)
  in
  size_clusters_with ~eval ~wl_lo ~wl_hi circuit ~budget ~vt_high
    ~cluster_of_gate ~n_clusters

(* Primary outputs reachable downstream of every gate — the
   fanout-endpoint cost that orders phase-A ties (cells feeding more
   endpoints buy more slack per swap).  Bitset DP over the reverse DAG. *)
let endpoint_counts circuit =
  let outs = C.outputs circuit in
  let n_out = Array.length outs in
  let words = (n_out + 62) / 63 in
  let sets = Array.make_matrix (C.num_nets circuit) words 0 in
  Array.iteri
    (fun j net ->
      sets.(net).(j / 63) <- sets.(net).(j / 63) lor (1 lsl (j mod 63)))
    outs;
  let gates = C.gates circuit in
  for gi = Array.length gates - 1 downto 0 do
    let g = gates.(gi) in
    let out_set = sets.(g.C.output) in
    Array.iter
      (fun inp ->
        let s = sets.(inp) in
        for w = 0 to words - 1 do
          s.(w) <- s.(w) lor out_set.(w)
        done)
      g.C.inputs
  done;
  let popcount x =
    let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
    go x 0
  in
  Array.map
    (fun (g : C.gate_inst) ->
      Array.fold_left (fun acc w -> acc + popcount w) 0 sets.(g.C.output))
    gates

(* index map dropping the empty slots of [counts] (-1 there), and the
   number of slots kept *)
let compact counts =
  let k = ref 0 in
  let remap =
    Array.map
      (fun m ->
        if m > 0 then begin
          incr k;
          !k - 1
        end
        else -1)
      counts
  in
  (remap, !k)

let optimize ?(ctx = Eval.Ctx.default) ?(objective = Leakage) ?(clusters = 4)
    ?(max_passes = 2) circuit ~delay_budget =
  if delay_budget < 0.0 then
    invalid_arg "Selective.optimize: delay_budget < 0";
  if clusters < 1 then invalid_arg "Selective.optimize: clusters < 1";
  if max_passes < 0 then invalid_arg "Selective.optimize: max_passes < 0";
  let n = C.num_gates circuit in
  if n = 0 then invalid_arg "Selective.optimize: circuit has no gates";
  let clusters = Int.min clusters (C.logic_depth circuit) in
  let obs = ctx.Eval.Ctx.obs in
  Obs.Span.with_ obs "selective.optimize" @@ fun () ->
  let body_effect = ctx.Eval.Ctx.body_effect in
  let lt = leak_terms circuit in
  let timer = Sta.prepare ~body_effect circuit in
  (* a timer belongs to one domain at a time: phase A's worker 0 runs in
     this one and queries [timer]; each other worker takes a spare,
     prepared on first need and kept for later flips *)
  let home = Domain.self () in
  let spares =
    Array.init (Int.max 0 ctx.Eval.Ctx.jobs) (fun _ ->
        lazy (Sta.prepare ~body_effect circuit))
  in
  let lent = Atomic.make 0 in
  let base = Sta.critical_arrival (Sta.analyze_with timer) in
  let budget = (1.0 +. delay_budget) *. base in
  (* seed clustering: level bands, empty bands compacted away *)
  let remap, k = compact (Hierarchy.populations circuit ~blocks:clusters) in
  let band = Hierarchy.by_level circuit ~blocks:clusters in
  let cluster_of = Array.map (fun b -> remap.(b)) band in
  let vt = Array.make n true in
  let evals = Atomic.make 0 in
  let eval_with timer ~vt_high ~cluster_of_gate ~sleep_wl =
    Atomic.incr evals;
    timed timer ~vt_high ~cluster_of_gate ~sleep_wl
  in
  let eval = eval_with timer in
  let wl_lo = 0.5 and wl_hi = 4096.0 in
  let wls_hi vt =
    let w = Array.make k 0.0 in
    for i = 0 to n - 1 do
      if not vt.(i) then w.(cluster_of.(i)) <- wl_hi
    done;
    w
  in
  (* phase A: swap worst-slack-path cells to low-Vt until the budget is
     met (devices held wide open; sizing comes after feasibility) *)
  let endpoints = endpoint_counts circuit in
  let flips = ref 0 in
  let rec phase_a iter =
    if iter > n + 1 then raise Not_found;
    Atomic.incr evals;
    let g = gating ~vt_high:vt ~cluster_of_gate:cluster_of
        ~sleep_wl:(wls_hi vt)
    in
    let sta = Sta.analyze_with ~gating:g timer in
    let arr = Sta.critical_arrival sta in
    if arr > budget then begin
      let path = Sta.critical_path sta in
      let cands = List.filter (fun gid -> vt.(gid)) path.Sta.through in
      let cands =
        if cands <> [] then cands
        else
          List.filter
            (fun gid -> vt.(gid))
            (List.init n (fun i -> i))
      in
      if cands = [] then raise Not_found;
      let cands = Array.of_list cands in
      Atomic.set lent 0;
      let scores =
        Par.Pool.map_stateful ~jobs:ctx.Eval.Ctx.jobs
          ~create:(fun () ->
            if Domain.self () = home then timer
            else Lazy.force spares.(Atomic.fetch_and_add lent 1))
          ~merge:ignore (Array.length cands) (fun timer i ->
            let vt' = Array.copy vt in
            vt'.(cands.(i)) <- false;
            eval_with timer ~vt_high:vt' ~cluster_of_gate:cluster_of
              ~sleep_wl:(wls_hi vt'))
      in
      let best = ref 0 in
      for i = 1 to Array.length cands - 1 do
        if
          scores.(i) < scores.(!best)
          || (scores.(i) = scores.(!best)
              && endpoints.(cands.(i)) > endpoints.(cands.(!best)))
        then best := i
      done;
      vt.(cands.(!best)) <- false;
      incr flips;
      phase_a (iter + 1)
    end
  in
  phase_a 0;
  let size vt =
    size_clusters_with ~eval ~wl_lo ~wl_hi circuit ~budget ~vt_high:vt
      ~cluster_of_gate:cluster_of ~n_clusters:k
  in
  let stack = memo_stack_current lt.tech in
  let value = objective_value circuit objective in
  let measure ?(cluster_of_gate = cluster_of) vt wls =
    let leakage =
      leakage_with lt ~stack ~vt_high:vt ~cluster_of_gate ~sleep_wl:wls
    in
    let area = sleep_area circuit ~sleep_wl:wls in
    (leakage, area, value ~leakage ~area)
  in
  let improves cur cand = cand < cur *. (1.0 -. 1e-9) in
  let wls = ref (size vt) in
  let obj = ref (let _, _, o = measure vt !wls in o) in
  (* re-size only the clusters a tentative change touches; None when the
     change cannot meet the budget even with those devices wide open *)
  let resize_subset vt cs wls0 =
    let wls' = Array.copy wls0 in
    let has_low c =
      let rec go i =
        i < n && (((not vt.(i)) && cluster_of.(i) = c) || go (i + 1))
      in
      go 0
    in
    List.iter
      (fun c -> wls'.(c) <- (if has_low c then wl_hi else 0.0))
      cs;
    if eval ~vt_high:vt ~cluster_of_gate:cluster_of ~sleep_wl:wls' > budget
    then None
    else begin
      List.iter
        (fun c ->
          if wls'.(c) > 0.0 then
            wls'.(c) <-
              Sizing.smallest_feasible ~lo:wl_lo ~hi:wls'.(c) (fun w ->
                  wls'.(c) <- w;
                  eval ~vt_high:vt ~cluster_of_gate:cluster_of
                    ~sleep_wl:wls'
                  <= budget))
        cs;
      Some wls'
    end
  in
  let reclaimed = ref 0 in
  let moved = ref 0 in
  let pass = ref 0 in
  let changed = ref true in
  while !changed && !pass < max_passes do
    incr pass;
    changed := false;
    (* phase B: Vt toggles that pay — widest pull-downs first (largest
       leakage stake), gate id breaking ties.  A low cell with slack can
       be reclaimed to high-Vt (its off-current replaces its share of
       device current); a high cell can be swapped back to low when its
       off-current costs more than the device growth it causes.  Both
       directions re-price only the touched cluster. *)
    let order =
      List.sort
        (fun a b ->
          match compare lt.pd.(b) lt.pd.(a) with 0 -> compare a b | c -> c)
        (List.init n (fun i -> i))
    in
    List.iter
      (fun g ->
        let was = vt.(g) in
        vt.(g) <- not was;
        match resize_subset vt [ cluster_of.(g) ] !wls with
        | Some wls' ->
          let _, _, o' = measure vt wls' in
          if improves !obj o' then begin
            wls := wls';
            obj := o';
            if was then incr flips else incr reclaimed;
            changed := true
          end
          else vt.(g) <- was
        | None -> vt.(g) <- was)
      order;
    (* phase C: cluster refinement — move a low-Vt gate to another
       device when that shrinks the objective within the budget *)
    if k > 1 then
      for g = 0 to n - 1 do
        if not vt.(g) then
          for c' = 0 to k - 1 do
            let c = cluster_of.(g) in
            if c' <> c then begin
              cluster_of.(g) <- c';
              let cs = if c < c' then [ c; c' ] else [ c'; c ] in
              match resize_subset vt cs !wls with
              | Some wls' ->
                let _, _, o' = measure vt wls' in
                if improves !obj o' then begin
                  wls := wls';
                  obj := o';
                  incr moved;
                  changed := true
                end
                else cluster_of.(g) <- c
              | None -> cluster_of.(g) <- c
            end
          done
      done
  done;
  (* canonical final sizing (what the differential oracle prices), then
     compact away clusters that lost every member *)
  wls := size vt;
  let count = Array.make k 0 in
  Array.iter (fun c -> count.(c) <- count.(c) + 1) cluster_of;
  let remap2, k' = compact count in
  let cluster_final = Array.map (fun c -> remap2.(c)) cluster_of in
  let wls_final = Array.make k' 0.0 in
  Array.iteri (fun c w -> if remap2.(c) >= 0 then wls_final.(remap2.(c)) <- w)
    !wls;
  let members =
    Array.init k' (fun c ->
        let l = ref [] in
        for i = n - 1 downto 0 do
          if cluster_final.(i) = c then l := i :: !l
        done;
        Array.of_list !l)
  in
  let final_arrival =
    eval ~vt_high:vt ~cluster_of_gate:cluster_final ~sleep_wl:wls_final
  in
  let leakage, area, obj_value =
    measure ~cluster_of_gate:cluster_final vt wls_final
  in
  Obs.incr ~by:(Atomic.get evals) obs "selective.evaluations";
  Obs.incr ~by:!flips obs "selective.flips";
  Obs.incr ~by:!reclaimed obs "selective.reclaims";
  Obs.incr ~by:!moved obs "selective.moves";
  { vt_high = vt;
    cluster_of_gate = cluster_final;
    sleep_wl = wls_final;
    members;
    base_delay = base;
    budget;
    arrival = final_arrival;
    slack = budget -. final_arrival;
    leakage;
    ungated_leakage = ungated_leakage circuit;
    area;
    objective;
    objective_value = obj_value;
    evaluations = Atomic.get evals;
    flips_to_low = !flips;
    reclaimed = !reclaimed;
    moves = !moved }

let bounce ?(ctx = Eval.Ctx.default) circuit r ~vectors =
  let tech = C.tech circuit in
  let k = Array.length r.sleep_wl in
  let sleeps =
    Array.append
      (Array.map
         (fun wl ->
           if wl > 0.0 then
             Breakpoint_sim.Sleep_fet (Device.Sleep.nmos_footer tech ~wl)
           else Breakpoint_sim.Cmos)
         r.sleep_wl)
      [| Breakpoint_sim.Cmos |]
  in
  let block_of_gate =
    Array.mapi (fun gid c -> if r.vt_high.(gid) then k else c)
      r.cluster_of_gate
  in
  let config =
    { Breakpoint_sim.default_config with
      Breakpoint_sim.body_effect = ctx.Eval.Ctx.body_effect;
      partition = Some { Breakpoint_sim.block_of_gate; sleeps } }
  in
  snd (Sizing.worst_delay_bp ~obs:ctx.Eval.Ctx.obs ~config circuit vectors)

let pp_result ?vx_peak ppf r =
  let n = Array.length r.vt_high in
  let low = Array.fold_left (fun a h -> if h then a else a + 1) 0 r.vt_high in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "base delay     %.6g ps@," (r.base_delay *. 1e12);
  Format.fprintf ppf "budget         %.6g ps@," (r.budget *. 1e12);
  Format.fprintf ppf "arrival        %.6g ps (slack %.6g ps)@,"
    (r.arrival *. 1e12)
    (r.slack *. 1e12);
  Format.fprintf ppf "vt classes     %d low / %d high of %d gates@," low
    (n - low) n;
  Format.fprintf ppf "clusters       %d@," (Array.length r.sleep_wl);
  Array.iteri
    (fun c wl ->
      let m = r.members.(c) in
      let lowc =
        Array.fold_left
          (fun a g -> if r.vt_high.(g) then a else a + 1)
          0 m
      in
      if wl > 0.0 then
        Format.fprintf ppf "  %d: %d gates (%d low), sleep W/L %.4g@," c
          (Array.length m) lowc wl
      else
        Format.fprintf ppf "  %d: %d gates (%d low), no sleep device@," c
          (Array.length m) lowc)
    r.sleep_wl;
  Format.fprintf ppf "leakage        %.6g A (ungated %.6g A, %.4gx)@,"
    r.leakage r.ungated_leakage
    (r.ungated_leakage /. r.leakage);
  Format.fprintf ppf "sleep area     %.6g um^2@," (r.area *. 1e12);
  Format.fprintf ppf "objective      %s = %.6g@,"
    (objective_name r.objective)
    r.objective_value;
  (match vx_peak with
   | None -> ()
   | Some vx -> Format.fprintf ppf "vx peak        %.6g V@," vx);
  Format.fprintf ppf "evaluations    %d (flips %d, reclaims %d, moves %d)"
    r.evaluations r.flips_to_low r.reclaimed r.moves;
  Format.fprintf ppf "@]"
