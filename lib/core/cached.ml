module K = Eval.Key
module BP = Breakpoint_sim

(* One-slot memo keyed on physical identity: sweeps evaluate one frozen
   circuit thousands of times, so the structural traversal is paid once.
   Atomic makes the benign race safe under Par.Pool workers (worst case
   both compute the same digest). *)
let circuit_slot : (Netlist.Circuit.t * string) option Atomic.t =
  Atomic.make None

let circuit_key c =
  match Atomic.get circuit_slot with
  | Some (c0, d) when c0 == c -> d
  | _ ->
    let b = K.create () in
    K.circuit b c;
    let d = Digest.string (K.contents b) in
    Atomic.set circuit_slot (Some (c, d));
    d

let sleep_model b = function
  | BP.Cmos -> K.raw b "cmos;"
  | BP.Resistor r ->
    K.raw b "res;";
    K.float b r
  | BP.Sleep_fet s ->
    K.raw b "fet;";
    K.sleep b s

let bp_config_key (cfg : BP.config) =
  let b = K.create () in
  sleep_model b cfg.BP.sleep;
  K.bool b cfg.BP.body_effect;
  K.option b
    (fun b (p : BP.partition) ->
      K.int b (Array.length p.BP.block_of_gate);
      Array.iter (K.int b) p.BP.block_of_gate;
      K.int b (Array.length p.BP.sleeps);
      Array.iter (sleep_model b) p.BP.sleeps)
    cfg.BP.partition;
  K.option b K.tech cfg.BP.tech_override;
  K.raw b
    (match cfg.BP.rail with BP.Gnd_switch -> "gnd;" | BP.Vdd_switch -> "vdd;");
  K.contents b

let sp_config_key (cfg : Spice_ref.config) =
  let b = K.create () in
  sleep_model b cfg.Spice_ref.sleep;
  K.float b cfg.Spice_ref.cx_extra;
  K.bool b cfg.Spice_ref.pmos_header;
  K.float b cfg.Spice_ref.t_start;
  K.float b cfg.Spice_ref.t_stop;
  K.option b K.float cfg.Spice_ref.dt;
  K.option b K.int cfg.Spice_ref.newton_budget;
  (* "f1;" was a deleted fast mode; the other atoms stay as they were so
     cache files saved before still hit *)
  K.raw b
    (match cfg.Spice_ref.fast with
     | `Off -> "f0;"
     | `Reduce_bypass -> "f2;");
  K.contents b

let vector_key ~before ~after =
  let b = K.create () in
  K.ints b before;
  K.ints b after;
  K.contents b

let digest ~tag parts =
  let b = K.create () in
  K.string b tag;
  List.iter (K.string b) parts;
  K.digest b

let bp_key ~config c ~before ~after =
  digest ~tag:"bp1"
    [ circuit_key c; bp_config_key config; vector_key ~before ~after ]

let bp_metrics ?cache ?obs ~config c ~before ~after =
  let compute _stats =
    let r = BP.simulate_ints ~config ?obs c ~before ~after in
    let d = Option.map snd (BP.critical_delay r) in
    (d, BP.vx_peak r, BP.peak_discharge_current r)
  in
  Eval.Cache.memo ?cache
    ~key:(lazy (bp_key ~config c ~before ~after))
    ~arity:4
    ~to_floats:(fun (d, vx, i) ->
      match d with
      | None -> [| 0.0; 0.0; vx; i |]
      | Some d -> [| 1.0; d; vx; i |])
    ~of_floats:(fun a ->
      ((if a.(0) = 0.0 then None else Some a.(1)), a.(2), a.(3)))
    compute
