(* Per-layer figures for the traced run.

   Three sources, all outside the program's own code:
   - the [Obs] registry and span profile of the traced pass (counters
     the program already records, normalised per operation);
   - direct timed calls into each layer's public functions on fixed
     inputs, the per-call costs;
   - the benchmark's own spans around each operation.
   The attribution table multiplies registry call counts by direct
   per-call costs and sets the sum beside the untraced [wall_s]. *)

module W = Workload
module C = Runner.Catalog

let budget_s = 0.15 (* per direct timing *)

(* ---- host drift -------------------------------------------------- *)

let calib_ms () =
  let t0 = Util.now () in
  let x = ref 1 in
  for i = 1 to 20_000_000 do
    x := (!x * 1103515245) + i land 0xffff
  done;
  ignore (Sys.opaque_identity !x);
  1e3 *. (Util.now () -. t0)

(* ---- fixed inputs for the direct timings ------------------------- *)

let tbl : W.circuits = Hashtbl.create 8
let bc ~tech name = W.circuit tbl ~tech name
let t07 = W.tech_card "07um"
let t03 = W.tech_card "03um"

let levels (b : C.bench_circuit) groups =
  Netlist.Logic_sim.pack_ints b.C.circuit groups

let vectors (b : C.bench_circuit) k =
  let st = Random.State.make [| 7 |] in
  List.init k (fun _ ->
      Result.get_ok (C.parse_vector b.C.widths (W.switching_vector st b)))

let card = function "03um" -> t03 | _ -> t07

(* breakpoint simulations of [name] at a representative sleep size *)
let bp_simulate_us ~tech name =
  let b = bc ~tech name in
  let wl = if tech = "03um" then 100.0 else 20.0 in
  let config = Mtcmos.Breakpoint_sim.mtcmos_config (card tech) ~wl in
  let vs = Array.of_list (vectors b 8) in
  1e6
  *. Util.time_per_call ~budget_s (fun i ->
         let before, after = vs.(i mod Array.length vs) in
         ignore
           (Mtcmos.Breakpoint_sim.simulate_ints ~config b.C.circuit ~before
              ~after))

(* the hunt-bp circuits, for the per-layer figure *)
let hunt_simulate_us () =
  0.5 *. (bp_simulate_us ~tech:"07um" "adder8" +. bp_simulate_us ~tech:"03um" "mult4")

let vground_solve_us () =
  let cfg = Mtcmos.Vground.config t07 in
  let sleep =
    Device.Sleep.make t07.Device.Tech.sleep_nmos ~wl:10.0
      ~vdd:t07.Device.Tech.vdd
  in
  let gates =
    List.init 8 (fun k ->
        { Mtcmos.Vground.beta_wl = 1.0 +. (0.25 *. float k);
          vin = t07.Device.Tech.vdd })
  in
  1e6
  *. Util.time_per_call ~budget_s (fun _ ->
         ignore (Mtcmos.Vground.solve_device cfg ~sleep gates))

let event_sim_step_us () =
  let cases =
    List.map
      (fun (tech, name) ->
        let b = bc ~tech name in
        let es = Netlist.Event_sim.compile b.C.circuit in
        let vs =
          Array.of_list
            (List.concat_map
               (fun (x, y) -> [ levels b x; levels b y ])
               (vectors b 8))
        in
        (es, vs))
      [ ("07um", "adder8"); ("03um", "mult4") ]
    |> Array.of_list
  in
  let states =
    Array.map (fun (es, vs) -> ref (Netlist.Event_sim.init es vs.(0))) cases
  in
  1e6
  *. Util.time_per_call ~budget_s (fun i ->
         let c = i mod Array.length cases in
         let es, vs = cases.(c) in
         let m =
           Netlist.Event_sim.step es !(states.(c)) vs.((i / 2) mod Array.length vs)
         in
         states.(c) := m.Netlist.Event_sim.post)

let event_sim_compile_ms (env : Bench.env) =
  let cs = Hashtbl.fold (fun _ (b : C.bench_circuit) acc -> b :: acc) env.Bench.tbl [] in
  let cs = Array.of_list cs in
  1e3
  *. Util.time_per_call ~budget_s (fun i ->
         ignore (Netlist.Event_sim.compile cs.(i mod Array.length cs).C.circuit))

(* one gated STA pass (no cache) on [name] with a seeded gating *)
let selective_arrival_us name =
  let c = (bc ~tech:"07um" name).C.circuit in
  let g = Netlist.Circuit.num_gates c in
  let st = Random.State.make [| 11 |] in
  let vt_high = Array.init g (fun _ -> Random.State.bool st) in
  let cluster_of_gate = Array.init g (fun i -> i mod 2) in
  let sleep_wl = [| 20.0; 20.0 |] in
  1e6
  *. Util.time_per_call ~budget_s (fun _ ->
         ignore
           (Mtcmos.Selective.arrival c ~vt_high ~cluster_of_gate ~sleep_wl))

let sta_analyze_us () =
  let c = (bc ~tech:"07um" "kogge8").C.circuit in
  1e6 *. Util.time_per_call ~budget_s (fun _ -> ignore (Mtcmos.Sta.analyze c))

let mosfet_eval_ns () =
  let p = t07.Device.Tech.nmos in
  let n = 200_000 in
  let t0 = Util.now () in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let f = float (i land 255) /. 256.0 in
    let op =
      Device.Mosfet.eval p ~wl:2.0
        { Device.Mosfet.vgs = 1.2 *. f; vds = 1.2 -. f; vbs = -0.1 *. f }
    in
    acc := !acc +. op.Device.Mosfet.ids
  done;
  ignore (Sys.opaque_identity !acc);
  1e9 *. (Util.now () -. t0) /. float n

(* the anchor decks: each anchor circuit expanded with a sleep device *)
let anchor_case name =
  let b = bc ~tech:"07um" name in
  let before, after = List.hd (vectors b 1) in
  (b, levels b before, levels b after)

(* one transient analysis at a representative sleep size, over [names] *)
let transient_ms ?(names = W.anchor_circuits) fast =
  let cases = Array.map anchor_case names in
  let config =
    { Mtcmos.Spice_ref.default_config with
      Mtcmos.Spice_ref.sleep = W.sleep_of t07 ~wl:10.0;
      fast }
  in
  1e3
  *. Util.time_per_call ~budget_s (fun i ->
         let b, before, after = cases.(i mod Array.length cases) in
         ignore (Mtcmos.Spice_ref.run ~config b.C.circuit ~before ~after))

let anchor_netlists () =
  Array.map
    (fun ((b : C.bench_circuit), before, after) ->
      let c = b.C.circuit in
      let vdd = t07.Device.Tech.vdd in
      let stimuli =
        Array.to_list
          (Array.mapi
             (fun i n ->
               let v l = if l = Netlist.Signal.L1 then vdd else 0.0 in
               (n, Phys.Pwl.create [ (0.0, v before.(i)); (1e-10, v after.(i)) ]))
             (Netlist.Circuit.inputs c))
      in
      (Netlist.Expand.expand
         ~config:
           { Netlist.Expand.default with Netlist.Expand.sleep_wl = Some 10.0 }
         c ~stimuli)
        .Netlist.Expand.netlist)
    (Array.map anchor_case W.anchor_circuits)

let prepare_ms () =
  let nets = anchor_netlists () in
  let modes = [| `Off; `Reduce_bypass |] in
  1e3
  *. Util.time_per_call ~budget_s (fun i ->
         let opts =
           Spice.Engine.Opts.with_fast modes.(i mod 2) Spice.Engine.Opts.default
         in
         ignore
           (Spice.Engine.prepare ~opts nets.((i / 2) mod Array.length nets)))

(* numeric LU on the anchor decks' MNA patterns, with diagonally
   dominant values so no pivot is tiny *)
let sparse_us () =
  let systems =
    Array.map
      (fun net ->
        let sys = Spice.Engine.system (Spice.Engine.prepare net) in
        let pat = sys.Spice.Mna.pattern in
        let n = La.Sparse.pattern_size pat in
        let m = La.Sparse.create_matrix pat in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            match La.Sparse.slot pat i j with
            | _ ->
              let v = if i = j then float n +. 1.0 else -1.0 /. float (1 + i + j) in
              La.Sparse.add_to m i j v
            | exception Not_found -> ()
          done
        done;
        (sys.Spice.Mna.symbolic, m, Array.init n (fun i -> float (i + 1))))
      (anchor_netlists ())
  in
  let k = Array.length systems in
  let factor_us =
    1e6
    *. Util.time_per_call ~budget_s (fun i ->
           let sym, m, _ = systems.(i mod k) in
           ignore (La.Sparse.factor sym m))
  in
  let numerics = Array.map (fun (sym, m, b) -> (La.Sparse.factor sym m, b)) systems in
  let solve_us =
    1e6
    *. Util.time_per_call ~budget_s (fun i ->
           let nu, b = numerics.(i mod k) in
           ignore (La.Sparse.solve nu b))
  in
  (factor_us, solve_us)

(* cache lookups and stores with [n] keys, the workload's population *)
let cache_us n =
  let n = max 1000 n in
  let key i = Digest.string (string_of_int i) in
  let keys = Array.init n key and absent = Array.init n (fun i -> key (-1 - i)) in
  let entry = { Eval.Cache.floats = [| 1.0; 2.0; 3.0; 4.0 |]; stats = None } in
  let c = Eval.Cache.create () in
  let per f =
    let t0 = Util.now () in
    for i = 0 to n - 1 do
      f i
    done;
    1e6 *. (Util.now () -. t0) /. float n
  in
  let store = per (fun i -> Eval.Cache.store c keys.(i) entry) in
  let hit = per (fun i -> ignore (Eval.Cache.find c keys.(i))) in
  let miss = per (fun i -> ignore (Eval.Cache.find c absent.(i))) in
  (hit, miss, store)

let parse_us (p : Bench.pass) =
  let texts = Array.map (fun ((o : W.op), _) -> o.W.text) p.Bench.ops in
  1e6
  *. Util.time_per_call ~budget_s (fun i ->
         ignore (Runner.Spec.parse_string texts.(i mod Array.length texts)))

let journal_append_us (p : Bench.pass) =
  let path = Filename.concat Bench.work_dir (Printf.sprintf "j%d.journal" (Unix.getpid ())) in
  let _, a = p.Bench.ops.(0) in
  let frag = String.map (fun c -> if c = '\n' then ' ' else c) a.W.manifest in
  Runner.Journal.start ~path ~fingerprint:"perfbench";
  let us =
    1e6
    *. Util.time_per_call ~budget_s (fun i ->
           Runner.Journal.append ~path ~id:(Printf.sprintf "j%d" i) ~json:frag)
  in
  Util.rm_rf path;
  us
