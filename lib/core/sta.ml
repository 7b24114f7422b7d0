module C = Netlist.Circuit

type path = {
  endpoint : C.net;
  arrival : float;
  through : C.gate_id list;
}

type gating = {
  vt_high : bool array;
  block_of_gate : int array;
  sleep_wl : float array;
}

type t = {
  circuit : C.t;
  delays : float array;        (* per gate *)
  arrivals : float array;      (* per net *)
}

let high_vt_view (tech : Device.Tech.t) =
  { tech with
    Device.Tech.nmos = tech.Device.Tech.sleep_nmos;
    pmos = tech.Device.Tech.sleep_pmos }

let validate_gating circuit g =
  let n = C.num_gates circuit in
  if Array.length g.vt_high <> n || Array.length g.block_of_gate <> n then
    invalid_arg "Sta.analyze: gating arrays must cover every gate";
  Array.iter
    (fun b ->
      if b <> -1 && (b < 0 || b >= Array.length g.sleep_wl) then
        invalid_arg "Sta.analyze: gating block out of range")
    g.block_of_gate

let on_gated_rail gating gid =
  let b = gating.block_of_gate.(gid) in
  b >= 0 && (not gating.vt_high.(gid)) && gating.sleep_wl.(b) > 0.0

(* Co-discharge sets for the gated timer: a discharge wave sweeps the
   DAG level by level, so the low-Vt gates that pull current through one
   cluster device simultaneously are the same-cluster gates at the same
   topological depth (the pipeline-wave mutual exclusion Hierarchy
   documents).  Each (cluster, depth) group shares one virtual-ground
   equilibrium — the Fig. 8 N-inverter model.  Gates at the same depth
   behind different devices do NOT load each other's rail: splitting a
   wide level across clusters is exactly how the optimizer buys
   isolation.

   An equilibrium is a pure function of the group's device W/L and its
   members' pull-down W/Ls in gate id order, so the timer memoizes it on
   exactly that: the W/L bits, the member count and a signature, each
   member's index into the circuit's distinct pull-down W/Ls packed in
   id order ([width] bits each; no bits at all when every gate has the
   same drive).  The memo is direct-mapped, [memo_capacity] entries in
   flat arrays, compared whole on a hit and overwritten on a collision.
   Neither the cluster nor the depth enters the key: groups alike in
   W/L and drives share one equilibrium. *)
let memo_bits = 10
let memo_capacity = 1 lsl memo_bits

type rails = {
  depths : int array;                 (* per gate, 1 = fed by inputs only *)
  levels : int;
  drive : int array;                  (* per gate: its index in [drives] *)
  drives : float array;               (* distinct pull-down W/Ls *)
  width : int;                        (* bits per drive index *)
  per_word : int;                     (* drive indices per int *)
  words : int;                        (* ints per signature *)
  slot_of : int array;                (* per gate: this query's slot, or -1 *)
  mutable count : int array;          (* per slot: this query's members *)
  mutable signature : int array;      (* per slot, [words] ints each *)
  mutable slot_vx : float array;      (* per slot: this query's level *)
  key_count : int array;              (* the memo, [0] when empty *)
  key_wl : float array;
  key_signature : int array;          (* [words] ints per entry *)
  memo_vx : float array;
}

type timer = {
  circuit : C.t;
  low : Delay_model.t;
  pull_down : float array;            (* per gate, as are the next four *)
  pull_up : float array;
  load : float array;
  rise : float array;                 (* low-Vt *)
  ideal : float array;                (* low-Vt on an ideal ground *)
  high_model : Delay_model.t Lazy.t;  (* the sleep-card devices *)
  high : float array;                 (* high-Vt, on first need (nan) *)
  rails : rails Lazy.t;               (* on the first gated query *)
  (* the last query's answer, re-priced in place by the next one *)
  delays : float array;               (* per gate *)
  arrivals : float array;             (* per net *)
  gated : bool array;                 (* per gate: priced on a virtual rail *)
  gated_vx : float array;             (* per gate: at that rail level *)
  mutable dirty : int;                (* first gate whose delay changed *)
}

(* One per-gate rule for every cell: Eq. 3 against the cell's Vt card,
   the falling edge seeing the cell's virtual-ground level [vx]. *)
let cell_delay model ~vx ~beta_wl cl rise =
  Float.max (Delay_model.fall_delay model ~vx ~beta_wl ~cl) rise

let make_rails circuit pull_down =
  let depths = C.gate_depths circuit in
  let levels = Array.fold_left Int.max 0 depths in
  let population = Array.make levels 0 in
  Array.iter (fun d -> population.(d - 1) <- population.(d - 1) + 1) depths;
  let index = Hashtbl.create 4 in
  let drive =
    Array.map
      (fun wl ->
        let key = Int64.bits_of_float wl in
        match Hashtbl.find_opt index key with
        | Some i -> i
        | None ->
          let i = Hashtbl.length index in
          Hashtbl.add index key i;
          i)
      pull_down
  in
  let drives = Array.make (Hashtbl.length index) 0.0 in
  Array.iteri (fun gid i -> drives.(i) <- pull_down.(gid)) drive;
  let rec bits x = if x = 0 then 0 else 1 + bits (x lsr 1) in
  let width = bits (Array.length drives - 1) in
  let per_word = if width = 0 then 1 else (Sys.int_size - 1) / width in
  let words =
    if width = 0 then 0
    else (Array.fold_left Int.max 0 population + per_word - 1) / per_word
  in
  { depths; levels; drive; drives; width; per_word; words;
    slot_of = Array.make (Array.length depths) (-1);
    count = [||];
    signature = [||];
    slot_vx = [||];
    key_count = Array.make memo_capacity 0;
    key_wl = Array.make memo_capacity 0.0;
    key_signature = Array.make (memo_capacity * words) 0;
    memo_vx = Array.make memo_capacity 0.0 }

let prepare ?body_effect circuit =
  let tech = C.tech circuit in
  let n = C.num_gates circuit in
  let pull_down = Array.make n 0.0 and pull_up = Array.make n 0.0 in
  let load = Array.make n 0.0 and rise = Array.make n 0.0 in
  let low = Delay_model.of_tech ?body_effect tech in
  let ideal =
    Array.map
      (fun (g : C.gate_inst) ->
        let i = g.C.id in
        let d = Netlist.Gate.drive tech ~strength:g.C.strength g.C.kind in
        pull_down.(i) <- d.Netlist.Gate.wl_pull_down;
        pull_up.(i) <- d.Netlist.Gate.wl_pull_up;
        load.(i) <- C.load_capacitance circuit g.C.output;
        rise.(i) <-
          Delay_model.rise_delay low ~wl_pull_up:pull_up.(i) ~cl:load.(i);
        cell_delay low ~vx:0.0 ~beta_wl:pull_down.(i) load.(i) rise.(i))
      (C.gates circuit)
  in
  { circuit; low; pull_down; pull_up; load; rise; ideal;
    high_model = lazy (Delay_model.of_tech ?body_effect (high_vt_view tech));
    high = Array.make n Float.nan;
    rails = lazy (make_rails circuit pull_down);
    (* every cell starts ideal, no arrival propagated yet *)
    delays = Array.copy ideal;
    arrivals = Array.make (C.num_nets circuit) 0.0;
    gated = Array.make n false;
    gated_vx = Array.make n 0.0;
    dirty = 0 }

let[@inline] same_bits a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* the memo entry a key maps to: multiplicative hashing, the index
   taken from the top bits, which every key bit reaches *)
let[@inline] memo_index r ~count ~wl ~at =
  let mix h x = (h lxor x) * 0x1E3779B97F4A7C15 in
  let h = ref (mix count (Int64.to_int (Int64.bits_of_float wl))) in
  for w = 0 to r.words - 1 do
    h := mix !h r.signature.(at + w)
  done;
  !h lsr (Sys.int_size - memo_bits)

(* set the rail level of slot [s] (members counted and signed) behind
   its cluster's device *)
let equilibrium t r s sleep_wl =
  let wl = sleep_wl.(s / r.levels) in
  let count = r.count.(s) and at = s * r.words in
  let e = memo_index r ~count ~wl ~at in
  let hit = ref (r.key_count.(e) = count && same_bits r.key_wl.(e) wl) in
  for w = 0 to r.words - 1 do
    if r.key_signature.((e * r.words) + w) <> r.signature.(at + w) then
      hit := false
  done;
  if !hit then r.slot_vx.(s) <- r.memo_vx.(e)
  else begin
    let gates = ref [] in
    for i = count - 1 downto 0 do
      let d =
        if r.width = 0 then 0
        else
          (r.signature.(at + (i / r.per_word))
           lsr (i mod r.per_word * r.width))
          land ((1 lsl r.width) - 1)
      in
      gates :=
        { Vground.beta_wl = r.drives.(d); vin = t.low.Delay_model.vdd }
        :: !gates
    done;
    let r_on =
      Device.Sleep.effective_resistance
        (Device.Sleep.nmos_footer (C.tech t.circuit) ~wl)
    in
    let vx = Vground.solve_resistor t.low.Delay_model.vg ~r:r_on !gates in
    r.key_count.(e) <- count;
    r.key_wl.(e) <- wl;
    Array.blit r.signature at r.key_signature (e * r.words) r.words;
    r.memo_vx.(e) <- vx;
    r.slot_vx.(s) <- vx
  end

(* re-price gate [gid] at delay [d] *)
let[@inline] set_delay t gid d =
  if not (same_bits t.delays.(gid) d) then begin
    t.delays.(gid) <- d;
    if gid < t.dirty then t.dirty <- gid
  end

(* a high-Vt cell sits on the real ground: no bounce, just the weaker
   drive of the sleep-card devices *)
let high_delay t gid =
  let m = Lazy.force t.high_model in
  t.high.(gid) <-
    cell_delay m ~vx:0.0 ~beta_wl:t.pull_down.(gid) t.load.(gid)
      (Delay_model.rise_delay m ~wl_pull_up:t.pull_up.(gid)
         ~cl:t.load.(gid))

let price_ungated t =
  for gid = 0 to Array.length t.ideal - 1 do
    t.gated.(gid) <- false;
    set_delay t gid t.ideal.(gid)
  done

let price_gated t g =
  validate_gating t.circuit g;
  let r = Lazy.force t.rails in
  let n_slots = Array.length g.sleep_wl * r.levels in
  if Array.length r.slot_vx <> n_slots then begin
    r.count <- Array.make n_slots 0;
    r.signature <- Array.make (n_slots * r.words) 0;
    r.slot_vx <- Array.make n_slots 0.0
  end
  else begin
    Array.fill r.count 0 n_slots 0;
    Array.fill r.signature 0 (n_slots * r.words) 0
  end;
  (* members in id order, each signing its drive into the next field *)
  for gid = 0 to Array.length r.depths - 1 do
    if not (on_gated_rail g gid) then r.slot_of.(gid) <- -1
    else begin
      let s = (g.block_of_gate.(gid) * r.levels) + r.depths.(gid) - 1 in
      r.slot_of.(gid) <- s;
      let i = r.count.(s) in
      if r.width > 0 then begin
        let w = (s * r.words) + (i / r.per_word) in
        r.signature.(w) <-
          r.signature.(w)
          lor (r.drive.(gid) lsl (i mod r.per_word * r.width))
      end;
      r.count.(s) <- i + 1
    end
  done;
  for s = 0 to n_slots - 1 do
    if r.count.(s) > 0 then equilibrium t r s g.sleep_wl
  done;
  for gid = 0 to Array.length r.depths - 1 do
    if g.vt_high.(gid) then begin
      if Float.is_nan t.high.(gid) then high_delay t gid;
      t.gated.(gid) <- false;
      set_delay t gid t.high.(gid)
    end
    else if r.slot_of.(gid) >= 0 then begin
      let vx = r.slot_vx.(r.slot_of.(gid)) in
      if not (t.gated.(gid) && same_bits t.gated_vx.(gid) vx) then begin
        t.gated.(gid) <- true;
        t.gated_vx.(gid) <- vx;
        set_delay t gid
          (cell_delay t.low ~vx ~beta_wl:t.pull_down.(gid) t.load.(gid)
             t.rise.(gid))
      end
    end
    else begin
      t.gated.(gid) <- false;
      set_delay t gid t.ideal.(gid)
    end
  done

(* a gate's output arrival: its latest input arrival plus [delay] *)
let[@inline] settle arrivals (g : C.gate_inst) delay =
  let worst_in = ref 0.0 in
  for j = 0 to Array.length g.C.inputs - 1 do
    worst_in := Float.max !worst_in arrivals.(g.C.inputs.(j))
  done;
  arrivals.(g.C.output) <- !worst_in +. delay

let propagate circuit ~delay =
  let arrivals = Array.make (C.num_nets circuit) 0.0 in
  Array.iter (fun g -> settle arrivals g (delay g)) (C.gates circuit);
  arrivals

let worst_output circuit arrivals =
  let outs = C.outputs circuit in
  if Array.length outs = 0 then
    invalid_arg "Sta.worst_output: circuit has no outputs";
  let best = ref outs.(0) in
  Array.iter (fun n -> if arrivals.(n) > arrivals.(!best) then best := n) outs;
  (!best, arrivals.(!best))

let analyze_with ?gating t =
  (match gating with None -> price_ungated t | Some g -> price_gated t g);
  (* gates are in topological order: the nets before the first changed
     gate keep their arrivals *)
  let gates = C.gates t.circuit in
  for i = t.dirty to Array.length gates - 1 do
    settle t.arrivals gates.(i) t.delays.(i)
  done;
  t.dirty <- Array.length gates;
  { circuit = t.circuit;
    delays = Array.copy t.delays;
    arrivals = Array.copy t.arrivals }

let analyze ?body_effect ?gating circuit =
  analyze_with ?gating (prepare ?body_effect circuit)

let gate_delay (t : t) gid = t.delays.(gid)
let arrival (t : t) net = t.arrivals.(net)

(* the critical path ending at [endpoint] *)
let path_to (t : t) endpoint =
  let rec walk net acc =
    match C.gate_of_output t.circuit net with
    | None -> acc
    | Some g ->
      (* the input whose arrival dominates *)
      let worst =
        Array.fold_left
          (fun best n ->
            match best with
            | None -> Some n
            | Some b -> if t.arrivals.(n) > t.arrivals.(b) then Some n
              else best)
          None g.C.inputs
      in
      (match worst with
       | Some n when t.arrivals.(n) > 0.0 -> walk n (g.C.id :: acc)
       | Some _ | None -> g.C.id :: acc)
  in
  { endpoint; arrival = t.arrivals.(endpoint); through = walk endpoint [] }

let critical_path (t : t) = path_to t (fst (worst_output t.circuit t.arrivals))
let critical_arrival (t : t) = snd (worst_output t.circuit t.arrivals)

let mtcmos_underestimate t circuit ~sleep ~vectors =
  let sta_delay = critical_arrival t in
  let simulated, _ =
    Sizing.worst_delay_bp
      ~config:{ Breakpoint_sim.default_config with Breakpoint_sim.sleep }
      circuit vectors
  in
  (simulated -. sta_delay) /. sta_delay
