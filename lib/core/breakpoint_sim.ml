module C = Netlist.Circuit
module S = Netlist.Signal

type sleep_model =
  | Cmos
  | Resistor of float
  | Sleep_fet of Device.Sleep.t

type rail_side = Gnd_switch | Vdd_switch

type partition = {
  block_of_gate : int array;
  sleeps : sleep_model array;
}

type config = {
  sleep : sleep_model;
  body_effect : bool;
  partition : partition option;
  tech_override : Device.Tech.t option;
  rail : rail_side;
}

(* the primary inputs flip at t = 0; the event bound is the hang guard *)
let t_start = 0.0
let max_events = 1_000_000

let default_config =
  { sleep = Cmos;
    body_effect = true;
    partition = None;
    tech_override = None;
    rail = Gnd_switch }

let mtcmos_config tech ~wl =
  { default_config with sleep = Sleep_fet (Device.Sleep.nmos_footer tech ~wl) }

let mtcmos_pmos_config (tech : Device.Tech.t) ~wl =
  let sleep =
    Device.Sleep.of_pmos tech.Device.Tech.sleep_pmos ~wl
      ~vdd:tech.Device.Tech.vdd
  in
  { default_config with sleep = Sleep_fet sleep; rail = Vdd_switch }

type phase = Idle | Rising | Falling

type result = {
  circuit : C.t;
  vdd : float;
  wave_points : (float * float) list array; (* per net, reversed *)
  mutable vx_points : (float * float) list; (* headline rail, reversed *)
  vxb_points : (float * float) list ref array; (* per sleep block *)
  mutable i_points : (float * float) list;  (* total discharge current *)
  mutable vx_max : float;
  mutable i_max : float;
  mutable n_events : int;
  mutable n_solves : int; (* rail equilibria needed, reuses excluded *)
  mutable t_last : float;
}

let validate_inputs c levels name =
  if Array.length levels <> Array.length (C.inputs c) then
    invalid_arg (Printf.sprintf "Breakpoint_sim: %s length mismatch" name);
  Array.iter
    (fun l ->
      match l with
      | S.X -> invalid_arg (Printf.sprintf "Breakpoint_sim: X in %s" name)
      | S.L0 | S.L1 -> ())
    levels

(* Float.min and Float.max with no C call: ordered operands and the
   signed zeros are told apart by comparisons alone, and only a NaN
   operand takes the library function, which picks the NaN it would *)
let[@inline] fmin (x : float) (y : float) =
  if x < y then x
  else if y < x then y
  else if x = y then if 1.0 /. x < 0.0 then x else y
  else Float.min x y

let[@inline] fmax (x : float) (y : float) =
  if x < y then y
  else if y < x then x
  else if x = y then if 1.0 /. x < 0.0 then y else x
  else Float.max x y

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [same_bits] with no C call, for keys: equal non-zero floats share
   their bits, zeros are told apart by sign, and a NaN equals nothing *)
let[@inline] same_key (x : float) (y : float) =
  x = y && (x <> 0.0 || 1.0 /. x = 1.0 /. y)

(* --- per-circuit constants ---------------------------------------------
   What a simulation reads of its circuit under one card, body-effect
   setting and rail, computed once and shared immutably by every
   simulation (and domain) that asks for the same four: circuit and card
   by physical identity.  A short list in an atomic, like
   [Cached.circuit_slot]: a lost race costs a recomputation, never a
   wrong entry. *)
type constants = {
  k_circuit : C.t;
  k_tech : Device.Tech.t;
  k_body_effect : bool;
  k_rail : rail_side;
  vg_cfg : Vground.config;
  out : int array;
  cl : float array;
  gated_wl : float array;  (* the W/L the rail sees: pull-down or pull-up *)
  gated_k : float array;
  ungated_slope : float array;
}

let constants_cap = 8
let constants_slot : constants list Atomic.t = Atomic.make []

let compute_constants c tech ~body_effect ~rail =
  let model = Delay_model.of_tech ~body_effect tech in
  let gated_rising = rail = Vdd_switch in
  (* with a PMOS header, the shared rail is a virtual Vdd and the gated
     devices are the pull-ups: the same equilibrium solved against the
     PMOS alpha-power card (magnitudes) *)
  let vg_cfg =
    if gated_rising then
      { model.Delay_model.vg with
        Vground.model = Device.Tech.pmos_alpha tech }
    else model.Delay_model.vg
  in
  let vdd = tech.Device.Tech.vdd in
  let gates = C.gates c in
  let n_gates = Array.length gates in
  let out = Array.map (fun (g : C.gate_inst) -> g.C.output) gates in
  let cl = Array.map (C.load_capacitance c) out in
  let drives =
    Array.map
      (fun (g : C.gate_inst) ->
        Netlist.Gate.drive tech ~strength:g.C.strength g.C.kind)
      gates
  in
  let beta_wl = Array.map (fun d -> d.Netlist.Gate.wl_pull_down) drives in
  let wl_up = Array.map (fun d -> d.Netlist.Gate.wl_pull_up) drives in
  (* the ungated edge's slope is a constant of the gate; the gated edge's
     is [gated_k * (its rail's alpha-power factor) / cl], the operations
     of [Vground.gate_current] in the same order *)
  let ungated_slope =
    Array.init n_gates (fun i ->
        if gated_rising then
          Delay_model.discharge_slope model ~vx:0.0 ~beta_wl:beta_wl.(i)
            ~vin:vdd ~cl:cl.(i)
        else Delay_model.charge_slope model ~wl_pull_up:wl_up.(i) ~cl:cl.(i))
  in
  let gated_wl = if gated_rising then wl_up else beta_wl in
  let half_beta = 0.5 *. vg_cfg.Vground.model.Device.Alpha_power.beta in
  let gated_k = Array.map (fun wl -> half_beta *. wl) gated_wl in
  { k_circuit = c; k_tech = tech; k_body_effect = body_effect; k_rail = rail;
    vg_cfg; out; cl; gated_wl; gated_k; ungated_slope }

let constants c tech ~body_effect ~rail =
  let known = Atomic.get constants_slot in
  match
    List.find_opt
      (fun k ->
        k.k_circuit == c && k.k_tech == tech
        && k.k_body_effect = body_effect && k.k_rail = rail)
      known
  with
  | Some k -> k
  | None ->
    let k = compute_constants c tech ~body_effect ~rail in
    Atomic.set constants_slot
      (k :: List.filteri (fun i _ -> i < constants_cap - 1) known);
    k

(* --- rail equilibria, memoized across simulations ---------------------
   A rail's equilibrium is a pure function of what its solve reads: the
   Vground card, the sleep model, the gates' drive voltage (always vdd)
   and the ordered discharging set.  The card, vin and sleep model are
   interned to a context id once per simulation: first by physical
   identity among the last [aliases_cap] contexts met (a simulation's
   card comes from the shared constants and its sleep model from its
   config, so a sweep meets the same values again), else by value,
   every field as bits.  Ids are never reused, so an entry left under a
   dropped context is only dead, and the by-value table is bounded by
   dropping it whole when full.

   The memo is direct-mapped: [memo_capacity] slots in flat arrays,
   each keyed on exactly (context id, set length, every W/L as bits),
   compared whole on a hit and overwritten on a collision.  A hit takes
   the lock once and allocates nothing.  One mutex guards every table:
   [serve] runs its workers as systhreads in one domain and [Par.Pool]
   runs domains, so neither a plain global nor a domain-local table
   would do. *)
let memo_lock = Mutex.create ()
let contexts_cap = 256
let contexts : (string, int) Hashtbl.t = Hashtbl.create 64
let next_context = ref 0

type alias = {
  a_vg : Vground.config;
  a_vin : float;
  a_sleep : sleep_model;
  a_id : int;
}

(* the contexts met last, newest first *)
let aliases_cap = 16
let aliases : alias list ref = ref []

let rail_context (vg : Vground.config) ~vin sleep =
  let alias =
    Mutex.protect memo_lock (fun () ->
        List.find_opt
          (fun a -> a.a_vg == vg && a.a_sleep == sleep && same_key a.a_vin vin)
          !aliases)
  in
  match alias with
  | Some a -> a.a_id
  | None ->
    (* No_sharing makes the bytes a function of the values alone *)
    let key = Marshal.to_string (vg, vin, sleep) [ Marshal.No_sharing ] in
    Mutex.protect memo_lock (fun () ->
        let id =
          match Hashtbl.find_opt contexts key with
          | Some id -> id
          | None ->
            if Hashtbl.length contexts >= contexts_cap then
              Hashtbl.reset contexts;
            let id = !next_context in
            incr next_context;
            Hashtbl.replace contexts key id;
            id
        in
        aliases :=
          { a_vg = vg; a_vin = vin; a_sleep = sleep; a_id = id }
          :: List.filteri (fun i _ -> i < aliases_cap - 1) !aliases;
        id)

let memo_bits = 12
let memo_capacity = 1 lsl memo_bits
let key_context = Array.make memo_capacity (-1)
let key_length = Array.make memo_capacity 0
let key_wls = Array.make memo_capacity [||]
let memo_vx = Array.make memo_capacity 0.0

(* the slot a key maps to: multiplicative hashing, the index taken from
   the top bits, which every key bit reaches *)
let[@inline] memo_index ~context beta_wls n =
  let mix h x = (h lxor x) * 0x1E3779B97F4A7C15 in
  let h = ref (mix context n) in
  for j = 0 to n - 1 do
    h := mix !h (Int64.to_int (Int64.bits_of_float beta_wls.(j)))
  done;
  !h lsr (Sys.int_size - memo_bits)

(* set [dst.(b)] to the equilibrium of the first [n] W/Ls of
   [beta_wls] under [context] *)
let equilibrium ~context vg sleep ~vin beta_wls n dst b =
  let e = memo_index ~context beta_wls n in
  Mutex.lock memo_lock;
  let hit =
    key_context.(e) = context
    && key_length.(e) = n
    &&
    let ks = key_wls.(e) in
    let j = ref 0 in
    while !j < n && same_key ks.(!j) beta_wls.(!j) do
      incr j
    done;
    !j = n
  in
  if hit then dst.(b) <- memo_vx.(e);
  Mutex.unlock memo_lock;
  if not hit then begin
    let set = List.init n (fun j -> { Vground.beta_wl = beta_wls.(j); vin }) in
    let vx =
      match sleep with
      | Cmos -> 0.0
      | Resistor r -> Vground.solve_resistor vg ~r set
      | Sleep_fet s -> Vground.solve_device vg ~sleep:s set
    in
    dst.(b) <- vx;
    let ks = Array.sub beta_wls 0 n in
    Mutex.lock memo_lock;
    key_context.(e) <- context;
    key_length.(e) <- n;
    key_wls.(e) <- ks;
    memo_vx.(e) <- vx;
    Mutex.unlock memo_lock
  end

(* --- the simulation ---------------------------------------------------- *)

let simulate_core ?(config = default_config) c ~before ~after =
  validate_inputs c before "before";
  validate_inputs c after "after";
  let tech =
    match config.tech_override with
    | Some t -> t
    | None -> C.tech c
  in
  let vdd = tech.Device.Tech.vdd in
  let half = vdd /. 2.0 in
  (* sleep-device partition: one shared rail by default *)
  let sleeps =
    match config.partition with
    | None -> [| config.sleep |]
    | Some p ->
      if Array.length p.sleeps = 0 then
        invalid_arg "Breakpoint_sim: empty partition";
      p.sleeps
  in
  let n_blocks = Array.length sleeps in
  let gated_rising = config.rail = Vdd_switch in
  let k =
    constants c tech ~body_effect:config.body_effect ~rail:config.rail
  in
  let vg_cfg = k.vg_cfg in
  (* the event-driven core shares one flattened netlist per circuit
     across every simulate call (and every Par.Pool domain); retargeting
     discovers the post state incrementally *)
  let es = Netlist.Event_sim.of_circuit c in
  let pre = Netlist.Event_sim.levels es (Netlist.Event_sim.init es before) in
  (* check the initial state is fully determined *)
  let gates = C.gates c in
  Array.iter
    (fun (g : C.gate_inst) ->
      match pre.(g.C.output) with
      | S.X ->
        invalid_arg "Breakpoint_sim: initial state not fully determined"
      | S.L0 | S.L1 -> ())
    gates;
  let n_nets = C.num_nets c in
  let volt_of_level = function S.L1 -> vdd | S.L0 | S.X -> 0.0 in
  let v_net = Array.make n_nets 0.0 in
  let level = Array.make n_nets false in
  for n = 0 to n_nets - 1 do
    v_net.(n) <- volt_of_level pre.(n);
    level.(n) <- pre.(n) = S.L1
  done;
  (* --- flat per-gate state, indexed by gate id ---------------------------- *)
  let n_gates = Array.length gates in
  (* every gate's block, checked whether or not it ever switches *)
  let block =
    match config.partition with
    | None -> Array.make n_gates 0
    | Some p ->
      if Array.length p.block_of_gate <> n_gates then
        invalid_arg "Breakpoint_sim: partition length mismatch";
      Array.iter
        (fun b ->
          if b < 0 || b >= n_blocks then
            invalid_arg "Breakpoint_sim: block index out of range")
        p.block_of_gate;
      p.block_of_gate
  in
  let out = k.out and cl = k.cl and gated_k = k.gated_k in
  let ungated_slope = k.ungated_slope in
  let v = Array.map (fun n -> v_net.(n)) out in
  let phase = Array.make n_gates Idle in
  let slope = Array.make n_gates 0.0 in
  (* the gates in transition, ascending by id: the per-breakpoint passes
     walk only these.  A gate joins when it leaves Idle and is dropped
     by the slope pass once Idle, when its slope is zeroed. *)
  let active = Array.make n_gates 0 in
  let n_active = ref 0 in
  let listed = Array.make n_gates false in
  let unsorted = ref false in
  let res =
    { circuit = c;
      vdd;
      wave_points = Array.make n_nets [];
      vx_points = [];
      vxb_points = Array.init n_blocks (fun _ -> ref []);
      i_points = [];
      vx_max = 0.0;
      i_max = 0.0;
      n_events = 0;
      n_solves = 0;
      t_last = t_start }
  in
  let record_net t n v = res.wave_points.(n) <- (t, v) :: res.wave_points.(n) in
  for n = 0 to n_nets - 1 do
    record_net 0.0 n v_net.(n)
  done;
  (* --- logic retargeting ------------------------------------------------ *)
  (* start or reverse the gate's transition when its logic target moved
     away from where it is heading *)
  let retarget t i =
    let g = gates.(i) in
    let target = Netlist.Gate.eval_levels g.C.kind level g.C.inputs in
    let o = out.(i) in
    match phase.(i) with
    | Idle when target <> level.(o) ->
      phase.(i) <- (if target then Rising else Falling);
      if not listed.(i) then begin
        listed.(i) <- true;
        active.(!n_active) <- i;
        incr n_active;
        unsorted := true
      end;
      record_net t o v.(i)
    | Rising when not target ->
      phase.(i) <- Falling;
      record_net t o v.(i)
    | Falling when target ->
      phase.(i) <- Rising;
      record_net t o v.(i)
    | Idle | Rising | Falling -> ()
  in
  (* the fan-out worklist: each gate queued once per breakpoint.  A
     retarget touches only its own gate, so the order they run in does
     not matter. *)
  let queued = Array.make n_gates 0 in
  let n_queued = ref 0 in
  let in_queue = Array.make n_gates false in
  let rec queue_readers = function
    | [] -> ()
    | (g, _) :: rest ->
      if not in_queue.(g) then begin
        in_queue.(g) <- true;
        queued.(!n_queued) <- g;
        incr n_queued
      end;
      queue_readers rest
  in
  let queue_fanout n = queue_readers (C.fanout c n) in
  let process_reevals t =
    for q = 0 to !n_queued - 1 do
      let g = queued.(q) in
      in_queue.(g) <- false;
      retarget t g
    done;
    n_queued := 0;
    (* newly active gates were appended: insertion-sort them in *)
    if !unsorted then begin
      unsorted := false;
      for a = 1 to !n_active - 1 do
        let x = active.(a) in
        let j = ref (a - 1) in
        while !j >= 0 && active.(!j) > x do
          active.(!j + 1) <- active.(!j);
          decr j
        done;
        active.(!j + 1) <- x
      done
    end
  in
  (* --- virtual ground and slopes ----------------------------------------- *)
  (* each block's discharging set: the gated W/Ls of its discharging
     gates, highest gate id first (the order the solve and the current
     sum read them) *)
  let block_size = Array.make n_blocks 0 in
  Array.iter (fun b -> block_size.(b) <- block_size.(b) + 1) block;
  let set_wl = Array.map (fun m -> Array.make m 0.0) block_size in
  let set_n = Array.make n_blocks 0 in
  let discharging_sets () =
    Array.fill set_n 0 n_blocks 0;
    for a = !n_active - 1 downto 0 do
      let i = active.(a) in
      let discharging =
        match phase.(i) with
        | Rising -> gated_rising && v.(i) < vdd
        | Falling -> (not gated_rising) && v.(i) > 0.0
        | Idle -> false
      in
      if discharging then begin
        let b = block.(i) in
        set_wl.(b).(set_n.(b)) <- k.gated_wl.(i);
        set_n.(b) <- set_n.(b) + 1
      end
    done
  in
  (* a block's equilibrium is a pure function of its discharging set:
     re-solve only when the set differs from the last one solved (every
     gate's vin is vdd, so two non-empty sets differ if vdd is NaN) *)
  let last_wl = Array.map (fun m -> Array.make m 0.0) block_size in
  let last_n = Array.make n_blocks (-1) in
  let last_vx = Array.make n_blocks 0.0 in
  let context =
    Array.map
      (function
        | Cmos -> -1
        | (Resistor _ | Sleep_fet _) as sleep ->
          rail_context vg_cfg ~vin:vdd sleep)
      sleeps
  in
  let same_set b =
    let n = set_n.(b) in
    if last_n.(b) <> n then false
    else if n > 0 && vdd <> vdd then false
    else begin
      let ws = set_wl.(b) and ls = last_wl.(b) in
      let j = ref 0 in
      while !j < n && ws.(!j) = ls.(!j) do
        incr j
      done;
      !j = n
    end
  in
  (* each rail sits at its block's equilibrium (the quasi-static model);
     [vxs_prev] holds the rails of the breakpoint before.  [power] is
     each rail's alpha-power factor, shared by its gated devices' slopes
     and by its current: computed again only when the rail's [vx] bits
     move ([power_vx] holds the [vx] it was computed at, NaN before the
     first) *)
  let vxs = Array.make n_blocks 0.0 in
  let vxs_prev = Array.make n_blocks 0.0 in
  let power = Array.make n_blocks 0.0 in
  let power_vx = Array.make n_blocks Float.nan in
  let solve_rails () =
    for b = 0 to n_blocks - 1 do
      (match sleeps.(b) with
       | Cmos -> vxs.(b) <- 0.0
       | (Resistor _ | Sleep_fet _) as sleep ->
         if not (same_set b) then begin
           let n = set_n.(b) in
           equilibrium ~context:context.(b) vg_cfg sleep ~vin:vdd set_wl.(b) n
             last_vx b;
           Array.blit set_wl.(b) 0 last_wl.(b) 0 n;
           last_n.(b) <- n;
           res.n_solves <- res.n_solves + 1
         end;
         vxs.(b) <- last_vx.(b));
      let vx = vxs.(b) in
      if not (same_key vx power_vx.(b)) then begin
        let vsb = if vg_cfg.Vground.body_effect then vx else 0.0 in
        power.(b) <-
          Device.Alpha_power.overdrive_power vg_cfg.Vground.model
            ~vgs:(vdd -. vx) ~vsb;
        power_vx.(b) <- vx
      end
    done
  in
  (* the time of the current breakpoint and the predicted next one, kept
     unboxed *)
  let now = [| t_start |] in
  let next = [| infinity |] in
  (* the slope pass, which also predicts the next breakpoint into
     [next]: the earliest threshold crossing or rail arrival of the
     gates still in transition, taken in the order of the active list
     (the order the separate prediction pass took them in).  Idle gates
     have their slope zeroed and leave the list. *)
  let recompute_slopes () =
    let t = now.(0) in
    let best = ref infinity in
    let kept = ref 0 in
    for a = 0 to !n_active - 1 do
      let i = active.(a) in
      match phase.(i) with
      | Idle ->
        slope.(i) <- 0.0;
        listed.(i) <- false
      | Rising ->
        let s =
          if gated_rising then gated_k.(i) *. power.(block.(i)) /. cl.(i)
          else ungated_slope.(i)
        in
        slope.(i) <- s;
        active.(!kept) <- i;
        incr kept;
        if s > 0.0 then begin
          let vi = v.(i) in
          if (not level.(out.(i))) && vi < half then
            best := fmin !best (t +. ((half -. vi) /. s));
          if vi < vdd then best := fmin !best (t +. ((vdd -. vi) /. s))
        end
      | Falling ->
        let s =
          if not gated_rising then -.(gated_k.(i) *. power.(block.(i))) /. cl.(i)
          else ungated_slope.(i)
        in
        slope.(i) <- s;
        active.(!kept) <- i;
        incr kept;
        if s < 0.0 then begin
          let vi = v.(i) in
          if level.(out.(i)) && vi > half then
            best := fmin !best (t +. ((half -. vi) /. s));
          if vi > 0.0 then best := fmin !best (t +. (-.vi /. s))
        end
    done;
    n_active := !kept;
    next.(0) <- !best
  in
  let half_beta = 0.5 *. vg_cfg.Vground.model.Device.Alpha_power.beta in
  let record_vx () =
    let t = now.(0) in
    let pre_t = fmax t (t -. 1e-16) in
    (* per-block traces *)
    for b = 0 to n_blocks - 1 do
      if vxs.(b) <> vxs_prev.(b) then begin
        let cell = res.vxb_points.(b) in
        cell := (t, vxs.(b)) :: (pre_t, vxs_prev.(b)) :: !cell
      end
    done;
    (* headline trace: the worst rail *)
    let vx = ref 0.0 and vx_prev = ref 0.0 in
    for b = 0 to n_blocks - 1 do
      vx := fmax !vx vxs.(b);
      vx_prev := fmax !vx_prev vxs_prev.(b)
    done;
    let vx = !vx and vx_prev = !vx_prev in
    if vx <> vx_prev then begin
      res.vx_points <- (t, vx) :: (pre_t, vx_prev) :: res.vx_points;
      if vx > res.vx_max then res.vx_max <- vx
    end;
    (* each block's discharge current: the float operations of
       [Vground.total_current] on its set (every gate at vin = vdd, so
       one alpha-power factor, the rail's [power]) *)
    let i_total = ref 0.0 in
    for b = 0 to n_blocks - 1 do
      let p = power.(b) and ws = set_wl.(b) in
      let acc = ref 0.0 in
      for j = 0 to set_n.(b) - 1 do
        acc := !acc +. (half_beta *. ws.(j) *. p)
      done;
      i_total := !i_total +. !acc
    done;
    let i_total = !i_total in
    let prev_i = match res.i_points with (_, i) :: _ -> i | [] -> 0.0 in
    if i_total <> prev_i then
      res.i_points <- (t, i_total) :: (pre_t, prev_i) :: res.i_points;
    if i_total > res.i_max then res.i_max <- i_total
  in
  (* --- main loop ---------------------------------------------------------- *)
  (* apply the input step *)
  Array.iteri
    (fun i n ->
      let new_level = after.(i) = S.L1 in
      if new_level <> level.(n) then begin
        (* the pre-step anchor sits at negative time (t_start = 0);
           Pwl handles that and the step renders correctly *)
        record_net (t_start -. 1e-13) n v_net.(n);
        level.(n) <- new_level;
        v_net.(n) <- volt_of_level after.(i);
        record_net t_start n v_net.(n);
        queue_fanout n
      end)
    (C.inputs c);
  process_reevals t_start;
  (* gate states are fixed from here to the slope update, so one
     discharging-set pass feeds both the rail solve and the current
     trace, and one power per rail both the current and the slopes *)
  discharging_sets ();
  solve_rails ();
  record_vx ();
  recompute_slopes ();
  (* a zero-length breakpoint that changed nothing would repeat forever:
     the next one that rounds to [t] steps one ulp instead *)
  let stalled = ref false in
  let eps = 1e-9 *. vdd in
  let continue = ref true in
  while !continue do
    let t = now.(0) in
    let best = next.(0) in
    let t_next = if best = t && !stalled then Float.succ t else best in
    if t_next = infinity then begin
      (* no pending breakpoints: either done, or no gate still in
         transition can move *)
      if !n_active > 0 then
        failwith
          (Printf.sprintf
             "Breakpoint_sim: stalled at t = %s: the sleep device is too \
              small for any switching gate to move"
             (Phys.Units.to_eng_string ~unit:"s" t));
      continue := false
    end
    else begin
      res.n_events <- res.n_events + 1;
      if res.n_events > max_events then
        failwith "Breakpoint_sim: event limit exceeded";
      let dt = t_next -. t in
      let moved = ref (dt <> 0.0) in
      (* advance the active outputs linearly; [eps] absorbs the float
         roundoff of scheduling a breakpoint exactly at a crossing *)
      for a = 0 to !n_active - 1 do
        let i = active.(a) in
        match phase.(i) with
        | Idle -> ()
        | (Rising | Falling) as ph ->
          (* [Phys.Float_utils.clamp ~lo:0.0 ~hi:vdd], inlined *)
          let v_new = v.(i) +. (slope.(i) *. dt) in
          let v_new =
            if v_new < 0.0 then 0.0 else if v_new > vdd then vdd else v_new
          in
          if not (!moved || same_bits v_new v.(i)) then moved := true;
          v.(i) <- v_new;
          let o = out.(i) in
          v_net.(o) <- v_new;
          (* threshold crossing, gated on the logical level so a
             crossing fires exactly once per traversal *)
          let crossed_up =
            ph = Rising && (not level.(o)) && v_new >= half -. eps
          in
          let crossed_dn = ph = Falling && level.(o) && v_new <= half +. eps in
          if crossed_up || crossed_dn then begin
            moved := true;
            level.(o) <- crossed_up;
            queue_fanout o
          end;
          (* rail arrival *)
          (match ph with
           | Rising when v_new >= vdd -. eps ->
             moved := true;
             v.(i) <- vdd;
             v_net.(o) <- vdd;
             phase.(i) <- Idle;
             record_net t_next o vdd
           | Falling when v_new <= eps ->
             moved := true;
             v.(i) <- 0.0;
             v_net.(o) <- 0.0;
             phase.(i) <- Idle;
             record_net t_next o 0.0
           | Rising | Falling | Idle -> record_net t_next o v_new)
      done;
      now.(0) <- t_next;
      Array.blit vxs 0 vxs_prev 0 n_blocks;
      process_reevals t_next;
      discharging_sets ();
      solve_rails ();
      for b = 0 to n_blocks - 1 do
        if not (!moved || same_bits vxs.(b) vxs_prev.(b)) then moved := true
      done;
      stalled := not !moved;
      record_vx ();
      recompute_slopes ()
    end
  done;
  res.t_last <- now.(0);
  (* close the traces *)
  let worst = Array.fold_left Float.max 0.0 vxs in
  res.vx_points <- (res.t_last, worst) :: res.vx_points;
  Array.iteri
    (fun b cell -> cell := (res.t_last, vxs.(b)) :: !cell)
    res.vxb_points;
  res.i_points <- (res.t_last, 0.0) :: res.i_points;
  res

let simulate_obs ?config ~obs c ~before ~after =
  Obs.Span.with_ obs "bp.simulate" @@ fun () ->
  let r = simulate_core ?config c ~before ~after in
  if Obs.metrics_on obs then begin
    Obs.incr obs "bp.simulations";
    Obs.incr obs ~by:r.n_events "bp.events";
    Obs.incr obs ~by:r.n_solves "bp.rail_solves"
  end;
  r

let simulate ?config c ~before ~after =
  simulate_obs ?config ~obs:Obs.disabled c ~before ~after

let simulate_ints ?config ?(obs = Obs.disabled) c ~before ~after =
  simulate_obs ?config ~obs c ~before:(C.pack_ints c before)
    ~after:(C.pack_ints c after)

let waveform res n =
  match res.wave_points.(n) with
  | [] -> Phys.Pwl.constant 0.0
  | pts -> Phys.Pwl.create_rev pts

(* a rail or current trace, anchored at 0 just before its first event so
   the initial step renders *)
let anchored_trace = function
  | [] -> Phys.Pwl.constant 0.0
  | pts ->
    let t_first =
      List.fold_left (fun acc (t, _) -> Float.min acc t) infinity pts
    in
    Phys.Pwl.create ((t_first -. 1e-13, 0.0) :: List.rev pts)

let vground_waveform res = anchored_trace res.vx_points

let vground_waveform_block res b =
  if b < 0 || b >= Array.length res.vxb_points then
    invalid_arg "Breakpoint_sim.vground_waveform_block";
  anchored_trace !(res.vxb_points.(b))

let discharge_current_waveform res = anchored_trace res.i_points
let vx_peak res = res.vx_max
let t_finish res = res.t_last
let events res = res.n_events

let peak_discharge_current res = res.i_max

(* [Spice.Measure.net_delay (waveform res n)] read off the recorded
   points, newest first, with no array built.  The points kept are those
   [Pwl.create_rev] keeps (of a run of equal times the newest), and the
   segments between them are compared as [Pwl.last_crossing] compares
   them, newest first, with the same float operations.  Points out of
   time order (a primary input's pre-step anchor) or not finite take the
   [waveform] path. *)
let net_delay res n =
  let level = res.vdd /. 2.0 in
  match res.wave_points.(n) with
  | [] -> None
  | (t, v) :: older ->
    (* [t1, v1]: the newer end of the segment the next kept point opens;
       plain loop refs, so the floats stay unboxed *)
    let t1 = ref t and v1 = ref v in
    let found = ref false and best = ref Float.nan in
    let ordered = ref (Float.is_finite t && Float.is_finite v) in
    let rest = ref older and walking = ref !ordered in
    while !walking do
      match !rest with
      | [] -> walking := false
      | (t0, v0) :: tl ->
        rest := tl;
        if (not (Float.is_finite t0 && Float.is_finite v0)) || t0 > !t1 then begin
          ordered := false;
          walking := false
        end
        else if t0 < !t1 then begin
          let v1' = !v1 in
          if (v0 < level && v1' >= level) || (v0 > level && v1' <= level) then begin
            let tc = t0 +. ((level -. v0) *. (!t1 -. t0) /. (v1' -. v0)) in
            if (not !found) || Float.compare tc !best > 0 then begin
              best := tc;
              found := true
            end
          end;
          t1 := t0;
          v1 := v0
        end
    done;
    if not !ordered then
      Spice.Measure.net_delay (waveform res n) ~vdd:res.vdd ~t_start
    else if !found && !best >= t_start then Some (!best -. t_start)
    else None

let critical_delay res =
  Spice.Measure.critical_delay (C.outputs res.circuit) (net_delay res)
