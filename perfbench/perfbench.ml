(* The benchmark executable.

     perfbench --workload W --seed N --seconds S --trace 0|1
     perfbench --self-test

   With --trace 0 it sets the workload up thirteen times (reporting the
   median set-up time), runs the closed timed loop over a fixed number
   of operations (S seconds' worth at the workload's nominal rate, at
   least 100), checks every answer, and prints the end-to-end
   metrics.  With --trace 1 it runs the same untraced pass,
   then replays exactly the same operations with the Obs registry and
   trace on, and prints the per-layer metrics and the attribution
   table.  The last line of standard output is the JSON result. *)

module W = Workload
module B = Bench
module L = Layers
module M = Obs.Metrics

let metric name value unit = (name, value, unit)

let print_result ~correct ~attempted ~failed metrics =
  let m =
    String.concat ","
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" n
             (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
             u)
         metrics)
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed m

let median xs = Phys.Stats.percentile xs 50.0

let count_true a = Array.fold_left (fun n b -> if b then n + 1 else n) 0 a

(* ---- answer quality ---------------------------------------------- *)

(* Each figure is computed over every operation of the untraced pass,
   so at a fixed seed and length it repeats exactly.  Off its home
   workload it comes from one fixed probe operation (the same on every
   run), because every workload reports every end-to-end metric. *)
let quality w (env : B.env) (p : B.pass) =
  let figure home gen f summary =
    if w = home then
      summary
        (Array.of_list
           (List.filter_map (fun (o, a) -> f o a) (Array.to_list p.B.ops)))
    else
      let o = gen ~seed:0 env.B.tbl (W.rng 0 4 0) 0 in
      let spec = Result.get_ok (Runner.Spec.parse_string o.W.text) in
      let ctx = Eval.Ctx.with_fast o.W.fast Eval.Ctx.default in
      match Runner.run ~ctx spec with
      | Ok out ->
        Option.value ~default:nan
          (f o { W.manifest = out.Runner.manifest; clean = true })
      | Error _ -> nan
  in
  let mean xs = (Phys.Stats.summarize xs).Phys.Stats.mean in
  let deg = figure W.Hunt_bp W.hunt_op W.hunt_degradation mean in
  let leak = figure W.Select_sta W.select_op W.selected_leakage Util.geomean in
  let err =
    figure W.Anchor_spice W.anchor_op (W.bp_error env.B.tbl) median
  in
  [ metric "worst_deg_pct" deg "%";
    metric "leak_fA" leak "fA";
    metric "bp_err_pct" err "%" ]

(* ---- the untraced pass ------------------------------------------- *)

(* Set-up is timed thirteen times: six spare set-ups before the loop,
   the one the loop runs on, and six spare ones after the answer
   checks.  One set-up takes a fraction of a second, in which the
   host's speed wanders by several per cent, so the median is taken
   over many samples spread across the whole run. *)
let spare_setups = 6

let untraced w ~seed ~count ~repeat_setup =
  let set_up () =
    let t0 = Util.now () in
    let env = B.setup w ~seed ~count ~obs:Obs.disabled in
    (env, Util.now () -. t0)
  in
  let spares () =
    List.init (if repeat_setup then spare_setups else 0) (fun _ ->
        let env, t = set_up () in
        B.teardown env;
        t)
  in
  let before = spares () in
  let env, t = set_up () in
  let p = B.timed env in
  B.teardown env;
  let v = B.verdicts env p in
  let after = spares () in
  (env, p, v, median (Array.of_list ((t :: before) @ after)))

(* the operation mix: per job kind, circuit and fast mode *)
let print_mix (p : B.pass) =
  let by = Hashtbl.create 8 in
  Array.iteri
    (fun i ((o : W.op), _) ->
      let k =
        Printf.sprintf "%s %s%s" (W.kind_of o.W.params) o.W.circuit
          (match (o.W.base, o.W.fast) with
           | Some _, _ -> " repeat"
           | None, `Off -> ""
           | None, _ -> " reduce-bypass")
      in
      Hashtbl.replace by k
        (p.B.lat.(i) :: Option.value ~default:[] (Hashtbl.find_opt by k)))
    p.B.ops;
  List.iter
    (fun (k, l) ->
      let s = Phys.Stats.summarize (Array.of_list l) in
      Printf.printf "  %-28s n %5d  mean %8.3f ms  p50 %8.3f ms  cv %.2f\n" k
        s.Phys.Stats.n (1e3 *. s.Phys.Stats.mean) (1e3 *. s.Phys.Stats.median)
        (s.Phys.Stats.stddev /. s.Phys.Stats.mean))
    (List.sort compare (List.of_seq (Hashtbl.to_seq by)))

let e2e w env (p : B.pass) v ~setup_s =
  let n = Array.length p.B.ops in
  print_mix p;
  let p50 = 1e3 *. median p.B.lat
  and p90 = 1e3 *. Phys.Stats.percentile p.B.lat 90.0 in
  Printf.printf "ops %d  op_p50_ms %.3f (n=%d)  op_p90_ms %.3f (n=%d)\n" n p50
    n p90 n;
  [ metric "wall_s" p.B.wall "s";
    metric "cpu_s" p.B.cpu "s";
    metric "ops_per_s" (float n /. p.B.wall) "1/s";
    metric "op_p50_ms" p50 "ms";
    metric "op_p90_ms" p90 "ms";
    metric "ok_frac" (float (count_true v) /. float n) "fraction";
    metric "peak_heap_mb" p.B.heap_mb "MB";
    metric "setup_s" setup_s "s" ]
  @ quality w env p

(* ---- the traced pass --------------------------------------------- *)

let counter obs name = M.count (Obs.metrics obs) name

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The serve layer of a serve-repeat set-up, before its daemon drains:
   median round trip, median warm [Runner.run] of the base specs on the
   daemon's context, and the daemon's own queue-wait window, in ms. *)
let serve_layer (env : B.env) (d : B.daemon) (p : B.pass) =
  let qwait =
    match B.http_get d.B.sock "/metrics" with
    | None -> nan
    | Some body ->
      List.fold_left
        (fun acc line ->
          match Jsonr.parse_opt line with
          | Some j
            when Jsonr.str (Jsonr.field "name" j) = "serve.queue_wait_s.p90.60s"
            ->
            1e3 *. Jsonr.num (Jsonr.field "value" j)
          | _ -> acc)
        nan
        (String.split_on_char '\n' body)
  in
  let runs =
    List.concat_map
      (fun (o : W.op) ->
        let spec = Result.get_ok (Runner.Spec.parse_string o.W.text) in
        List.init 3 (fun _ ->
            let t0 = Util.now () in
            ignore (Runner.run ~ctx:env.B.ctx spec);
            Util.now () -. t0))
      (Array.to_list env.B.bases)
  in
  ( 1e3 *. median p.B.lat,
    1e3 *. median (Array.of_list runs),
    qwait )

let serve_probe_ops = 300
let spice_probe_ops = 30

let traced w ~seed ~(p : B.pass) =
  let obs = Obs.create ~trace:true () in
  let n = Array.length p.B.ops in
  let env = B.setup w ~seed ~count:n ~obs in
  (* per (job kind, circuit, fast mode): the breakpoint simulations,
     SPICE transients and cache misses (computed select arrivals) its
     operations caused.  The daemon merges its registry on its own
     thread, so serve-repeat is read once, after it has drained. *)
  let snapshot () =
    [| counter obs "bp.simulations";
       counter obs "spice.transient.analyses";
       (Eval.Cache.counters env.B.cache).Eval.Cache.misses |]
  in
  let by_key = Hashtbl.create 16 in
  let add (o : W.op) d =
    let k = (W.kind_of o.W.params, o.W.tech, o.W.circuit, o.W.fast) in
    let acc = Option.value ~default:[| 0; 0; 0 |] (Hashtbl.find_opt by_key k) in
    Hashtbl.replace by_key k (Array.map2 ( + ) acc d)
  in
  let last = ref (snapshot ()) in
  let after_op o =
    if env.B.daemon = None then begin
      let now = snapshot () in
      add o (Array.map2 ( - ) now !last);
      last := now
    end
  in
  let c0 = Eval.Cache.counters env.B.cache in
  let pt = B.timed ~after_op env in
  let c1 = Eval.Cache.counters env.B.cache in
  let serve =
    match env.B.daemon with
    | Some d -> serve_layer env d pt
    | None ->
      (* the serve layer is measured on every workload: a fixed probe
         of serve-repeat requests against its own daemon *)
      let penv =
        B.setup W.Serve_repeat ~seed:0 ~count:serve_probe_ops ~obs:(Obs.create ())
      in
      let pp = B.timed penv in
      let r =
        match penv.B.daemon with
        | Some d -> serve_layer penv d pp
        | None -> (nan, nan, nan)
      in
      B.teardown penv;
      r
  in
  let rt, warm, qwait = serve in
  (* the spice layer's registry counts are read on every workload: on
     anchor-spice from its own pass, elsewhere from a fixed probe of
     anchor-spice operations with a registry of its own *)
  let sobs =
    if w = W.Anchor_spice then obs
    else begin
      let sobs = Obs.create () in
      let penv = B.setup W.Anchor_spice ~seed:0 ~count:spice_probe_ops ~obs:sobs in
      ignore (B.timed penv);
      B.teardown penv;
      sobs
    end
  in
  B.teardown env;
  (* the daemon has drained: its registry is complete and quiescent *)
  if env.B.daemon <> None then
    add (fst pt.B.ops.(0)) (Array.map2 ( - ) (snapshot ()) !last);
  (* tracing must not change an answer *)
  let same =
    Array.for_all2
      (fun (_, (a : W.answer)) (_, (b : W.answer)) ->
        String.equal a.W.manifest b.W.manifest)
      p.B.ops pt.B.ops
  in
  let dir = B.work_dir in
  let base = Filename.concat dir (Printf.sprintf "%s-%d" (W.name_string w) seed) in
  let trace_file = base ^ ".trace.json" and prof_file = base ^ ".folded" in
  Obs.write_trace obs trace_file;
  Obs.write_profile obs prof_file;
  let trace_ok =
    match Obs.Trace.validate_file trace_file with
    | Ok chk ->
      Printf.printf "trace-check %s: ok (%d events, %d tids)\n" trace_file
        chk.Obs.Trace.events_checked chk.Obs.Trace.tids;
      true
    | Error errs ->
      List.iter (Printf.printf "trace-check %s: %s\n" trace_file) errs;
      false
  in
  Printf.printf "profile: %s (+ .golden)\n" prof_file;
  let labels = Obs.Prof.labels (Obs.profile obs) in
  let label name =
    match List.find_opt (fun (l, _, _, _) -> l = name) labels with
    | Some (_, calls, total, self) -> (calls, total, self)
    | None -> (0, 0.0, 0.0)
  in
  let per_op x = x /. float n in
  (* direct per-call costs *)
  let parse_us = L.parse_us pt in
  let journal_us = L.journal_append_us pt in
  let hit_us, miss_us, store_us = L.cache_us c1.Eval.Cache.entries in
  let simulate_us = L.hunt_simulate_us () in
  let vground_us = L.vground_solve_us () in
  let step_us = L.event_sim_step_us () in
  let compile_ms = L.event_sim_compile_ms env in
  let arrival_us = L.selective_arrival_us "kogge8" in
  let sta_us = L.sta_analyze_us () in
  let off_ms = L.transient_ms `Off in
  let rb_ms = L.transient_ms `Reduce_bypass in
  let prepare_ms = L.prepare_ms () in
  let factor_us, solve_us = L.sparse_us () in
  let mosfet_ns = L.mosfet_eval_ns () in
  let calib = L.calib_ms () in
  (* registry counts *)
  let hits = c1.Eval.Cache.hits - c0.Eval.Cache.hits
  and misses = c1.Eval.Cache.misses - c0.Eval.Cache.misses in
  let sims = counter obs "bp.simulations" in
  let evals = counter obs "selective.evaluations" in
  let newton =
    match M.get (Obs.metrics sobs) "spice.newton_per_analysis" with
    | Some (M.Dist { sum; total; _ }) -> ratio sum (float total)
    | _ -> 0.0
  in
  let spice_analyses =
    counter sobs "spice.transient.analyses" + counter sobs "spice.dc.analyses"
  in
  let runner_op_ms =
    match env.B.daemon with
    | Some _ -> warm
    | None ->
      let calls, total, _ = label "bench.runner" in
      1e3 *. ratio total (float calls)
  in
  let _, _, search_self = label "search.hill_climb" in
  let _, _, selective_self = label "selective.optimize" in
  (* attribution: registry call counts x direct per-call cost on the
     circuit (and fast mode) the calls ran on *)
  let keyed = Hashtbl.create 16 in
  let row name calls cost =
    if calls > 0 then
      match Hashtbl.find_opt keyed name with
      | Some (c, cost) -> Hashtbl.replace keyed name (c + calls, cost)
      | None -> Hashtbl.replace keyed name (calls, Lazy.force cost)
  in
  Hashtbl.iter
    (fun (kind, tech, circuit, fast) d ->
      row ("core.bp.simulate " ^ circuit) d.(0)
        (lazy (L.bp_simulate_us ~tech circuit *. 1e-6));
      row
        (Printf.sprintf "spice.transient.%s %s"
           (match fast with `Off -> "off" | _ -> "rb")
           circuit)
        d.(1)
        (lazy (L.transient_ms ~names:[| circuit |] fast *. 1e-3));
      if kind = "select" then
        row ("core.selective.arrival " ^ circuit) d.(2)
          (lazy (L.selective_arrival_us circuit *. 1e-6)))
    by_key;
  let keyed =
    List.sort compare
      (List.of_seq
         (Seq.map (fun (name, (c, cost)) -> (name, c, cost)) (Hashtbl.to_seq keyed)))
  in
  let rows =
    [ ("runner.parse", n, parse_us *. 1e-6);
      ("eval.cache.find_hit", hits, hit_us *. 1e-6);
      ("eval.cache.find_miss+store", misses, (miss_us +. store_us) *. 1e-6) ]
    @ keyed
    @
    match env.B.daemon with
    | Some _ -> [ ("runner.journal_append", n, journal_us *. 1e-6) ]
    | None -> []
  in
  Printf.printf "attribution (%s, seed %d): wall_s %.3f over %d ops\n"
    (W.name_string w) seed p.B.wall n;
  Printf.printf "  %-38s %10s %14s %10s %7s\n" "layer" "calls" "per-call"
    "total_s" "share";
  let attributed =
    List.fold_left
      (fun acc (name, calls, cost) ->
        let total = float calls *. cost in
        Printf.printf "  %-38s %10d %12.3fus %10.4f %6.1f%%\n" name calls
          (cost *. 1e6) total (100.0 *. total /. p.B.wall);
        acc +. total)
      0.0 rows
  in
  let unattributed = 1.0 -. (attributed /. p.B.wall) in
  Printf.printf "  %-38s %10s %14s %10.4f %6.1f%%\n" "unattributed" "" ""
    (p.B.wall -. attributed) (100.0 *. unattributed);
  let overhead = rt -. warm in
  let metrics =
    [ metric "runner.op_ms" runner_op_ms "ms";
      metric "runner.parse_us" parse_us "us";
      metric "runner.journal_append_us" journal_us "us";
      metric "serve.roundtrip_ms" rt "ms";
      metric "serve.overhead_ms" overhead "ms";
      metric "serve.queue_wait_ms" qwait "ms";
      metric "eval.cache.hit_frac" (ratio (float hits) (float (hits + misses))) "fraction";
      metric "eval.cache.find_hit_us" hit_us "us";
      metric "eval.cache.find_miss_us" miss_us "us";
      metric "eval.cache.store_us" store_us "us";
      metric "eval.cache.entries" (float c1.Eval.Cache.entries) "count";
      metric "eval.cache.mb" (float c1.Eval.Cache.bytes /. 1048576.0) "MB";
      metric "core.bp.sims" (per_op (float sims)) "count/op";
      metric "core.bp.events_per_sim"
        (ratio (float (counter obs "bp.events")) (float sims)) "count";
      metric "core.bp.simulate_us" simulate_us "us";
      metric "core.vground.solve_us" vground_us "us";
      metric "core.search.self_s" (per_op search_self) "s/op";
      metric "core.selective.evals" (per_op (float evals)) "count/op";
      metric "core.selective.arrival_us" arrival_us "us";
      metric "core.sta.analyze_us" sta_us "us";
      metric "core.selective.self_s" (per_op selective_self) "s/op";
      metric "netlist.event_sim.step_us" step_us "us";
      metric "netlist.event_sim.compile_ms" compile_ms "ms";
      metric "spice.transient_ms.off" off_ms "ms";
      metric "spice.transient_ms.rb" rb_ms "ms";
      metric "spice.newton_per_analysis" newton "count";
      metric "spice.factorizations"
        (ratio (float (counter sobs "spice.factorizations")) (float spice_analyses))
        "count/analysis";
      metric "spice.bypass.hit_frac"
        (let h = counter sobs "spice.bypass.hits" in
         ratio (float h) (float (h + counter sobs "spice.bypass.misses")))
        "fraction";
      metric "spice.lte.accept_frac"
        (let a = counter sobs "spice.lte.accepted_steps" in
         ratio (float a) (float (a + counter sobs "spice.lte.rejected_steps")))
        "fraction";
      metric "spice.prepare_ms" prepare_ms "ms";
      metric "la.sparse.factor_us" factor_us "us";
      metric "la.sparse.solve_us" solve_us "us";
      metric "device.mosfet.eval_ns" mosfet_ns "ns";
      metric "bench.unattributed_share" unattributed "fraction";
      metric "obs.trace_overhead_frac" ((pt.B.wall /. p.B.wall) -. 1.0) "fraction";
      metric "bench.calib_ms" calib "ms" ]
  in
  (metrics, same && trace_ok)

(* ---- self-test --------------------------------------------------- *)

(* Corrupt the number each check reads in one answer; the check must
   catch it, so ok_frac drops below 1. *)
let corrupt (o : W.op) (a : W.answer) =
  let key, bad =
    match (o.W.base, o.W.params) with
    | Some _, _ -> ("\"vx_peak\":", "1e9")
    | None, W.Search _ -> ("\"score\":", "-1")
    | None, W.Size _ -> ("\"wl\":", "0.5")
    | None, W.Worst _ -> ("\"delay\":", "-1")
    | None, W.Select _ -> ("\"leakage\":", "-1")
    | None, W.Sweep _ -> ("\"mtcmos_delay\":", "-1")
  in
  let m = a.W.manifest in
  match Util.find_sub m key with
  | None -> { a with W.manifest = "" }
  | Some i ->
    let j = i + String.length key in
    let k = ref j in
    while !k < String.length m && m.[!k] <> ',' && m.[!k] <> '}' do
      incr k
    done;
    { a with
      W.manifest = String.sub m 0 j ^ bad ^ String.sub m !k (String.length m - !k) }

let self_test () =
  let ok =
    List.for_all
      (fun (name, w) ->
        let env = B.setup w ~seed:1 ~count:12 ~obs:Obs.disabled in
        let p = B.timed env in
        B.teardown env;
        let n = Array.length p.B.ops in
        let clean = count_true (B.verdicts env p) in
        (* corrupt each answer in turn: every corruption must be caught *)
        let caught =
          count_true
            (Array.map
               (fun (o, a) ->
                 let one = { p with B.ops = [| (o, corrupt o a) |] } in
                 not (B.verdicts env one).(0))
               p.B.ops)
        in
        let ops = Array.copy p.B.ops in
        let o, a = ops.(0) in
        ops.(0) <- (o, corrupt o a);
        let broken = count_true (B.verdicts env { p with B.ops }) in
        let pass = clean = n && caught = n && broken < n in
        Printf.printf
          "self-test %-13s ok_frac %.3f; one corrupted answer gives %.3f; \
           %d of %d corruptions caught: %s\n%!"
          name
          (float clean /. float n)
          (float broken /. float n)
          caught n
          (if pass then "pass" else "FAIL");
        pass)
      W.names
  in
  exit (if ok then 0 else 1)

(* ---- main -------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref 0 and self = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "NAME hunt-bp | select-sta | anchor-spice | serve-repeat");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S sizes the run: S seconds of operations at the nominal rate");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--self-test", Arg.Set self, " corrupted answers must lower ok_frac") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !self then self_test ();
  let w =
    match List.assoc_opt !workload W.names with
    | Some w -> w
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  let seed = !seed and count = B.op_count w ~seconds:!seconds in
  let env, p, v, setup_s =
    untraced w ~seed ~count ~repeat_setup:(!trace = 0)
  in
  let n = Array.length p.B.ops in
  let ok = count_true v in
  Array.iteri
    (fun i good ->
      if not good then
        Printf.printf "check failed: operation %d\n%s" i (fst p.B.ops.(i)).W.text)
    v;
  Printf.printf "%s seed %d: %d ops in %.3f s, cpu %.3f s, %d ok, setup %.3f s\n"
    (W.name_string w) seed n p.B.wall p.B.cpu ok setup_s;
  let metrics, correct =
    if !trace = 0 then (e2e w env p v ~setup_s, true)
    else traced w ~seed ~p
  in
  print_result ~correct:(correct && ok = n) ~attempted:n ~failed:(n - ok) metrics
