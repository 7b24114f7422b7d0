(* Observability suite: the registry's bucket and merge semantics, the
   jobs-invariance of instrumented totals, the zero-event guarantee of
   the disabled path, and the well-formedness of emitted Chrome traces
   under parallel recording. *)

let tech = Fixtures.tech

(* --- Metrics: histogram bucket edges ------------------------------- *)

let test_histogram_bucket_edges () =
  let m = Obs.Metrics.create () in
  let buckets = [| 1.0; 2.0; 4.0 |] in
  List.iter
    (Obs.Metrics.observe ~buckets m "h")
    [ 0.5; 1.0; 1.5; 4.0; 5.0 ];
  match Obs.Metrics.get m "h" with
  | Some (Obs.Metrics.Dist d) ->
    Alcotest.(check (array (float 0.0))) "edges kept" buckets d.bounds;
    (* a sample lands in the first bucket with v <= edge: 1.0 is in the
       first bucket, 4.0 in the last real bucket, 5.0 overflows *)
    Alcotest.(check (array int))
      "per-bucket counts" [| 2; 1; 1; 1 |] d.counts;
    Alcotest.(check int) "total" 5 d.total;
    Alcotest.(check (float 1e-9)) "sum" 12.0 d.sum
  | _ -> Alcotest.fail "expected a Dist"

let test_kind_clash_rejected () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "x";
  Alcotest.(check bool)
    "recording a counter as a sum raises" true
    (try
       Obs.Metrics.addf m "x" 1.0;
       false
     with Invalid_argument _ -> true)

let test_merge_semantics () =
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  Obs.Metrics.incr ~by:3 a "c";
  Obs.Metrics.incr ~by:4 b "c";
  Obs.Metrics.set_gauge a "g" 2.0;
  Obs.Metrics.set_gauge b "g" 7.0;
  Obs.Metrics.addf a "s" 0.25;
  Obs.Metrics.addf b "s" 0.5;
  Obs.Metrics.merge ~into:a b;
  Alcotest.(check int) "counters add" 7 (Obs.Metrics.count a "c");
  Alcotest.(check (float 0.0)) "gauges take max" 7.0 (Obs.Metrics.valuef a "g");
  Alcotest.(check (float 1e-12)) "sums add" 0.75 (Obs.Metrics.valuef a "s")

(* --- Jobs-invariance of instrumented totals ------------------------ *)

(* everything except the pool's own par.* self-metrics must be
   identical whatever the worker count *)
let non_pool_dump m =
  List.filter
    (fun (name, _) -> not (String.length name >= 4 && String.sub name 0 4 = "par."))
    (Obs.Metrics.dump m)

let sweep_workload ~obs ~jobs =
  let ch = Fixtures.chain 5 in
  let ctx =
    Eval.Ctx.default |> Eval.Ctx.with_obs obs |> Eval.Ctx.with_jobs jobs
  in
  Mtcmos.Sizing.sweep ~ctx ch.Circuits.Chain.circuit
    ~vectors:[ ([ (1, 0) ], [ (1, 1) ]); ([ (1, 1) ], [ (1, 0) ]) ]
    ~wls:[ 2.0; 5.0; 10.0; 20.0 ]

let test_registry_merge_deterministic () =
  let runs =
    List.map
      (fun jobs ->
        let obs = Obs.create () in
        let ms = sweep_workload ~obs ~jobs in
        (jobs, ms, non_pool_dump (Obs.metrics obs)))
      [ 1; 2; 4 ]
  in
  match runs with
  | (_, ms1, d1) :: rest ->
    Alcotest.(check bool)
      "sequential run recorded something" true
      (d1 <> []);
    List.iter
      (fun (jobs, ms, d) ->
        Alcotest.(check bool)
          (Printf.sprintf "measurements identical at jobs=%d" jobs)
          true (ms = ms1);
        Alcotest.(check bool)
          (Printf.sprintf "non-pool registry identical at jobs=%d" jobs)
          true (d = d1))
      rest
  | [] -> assert false

(* --- Disabled path: zero events, identical numbers ----------------- *)

let test_disabled_records_nothing () =
  Obs.incr Obs.disabled "phantom";
  Obs.addf Obs.disabled "phantom.f" 1.0;
  Obs.observe Obs.disabled "phantom.h" 1.0;
  Obs.max_gauge Obs.disabled "phantom.g" 9.0;
  Alcotest.(check bool)
    "registry stays empty" true
    (Obs.Metrics.dump (Obs.metrics Obs.disabled) = []);
  Alcotest.(check bool) "no trace sink" true (Obs.trace Obs.disabled = None);
  Alcotest.(check bool) "not enabled" false (Obs.enabled Obs.disabled);
  (* sharding the disabled instance must not allocate a live one *)
  let s = Obs.shard Obs.disabled in
  Alcotest.(check bool) "shard of disabled is disabled" false (Obs.enabled s);
  (* spans degrade to plain calls *)
  Alcotest.(check int) "span runs the thunk" 41
    (Obs.Span.with_ Obs.disabled "nop" (fun () -> 41))

let test_disabled_results_identical () =
  let off = sweep_workload ~obs:Obs.disabled ~jobs:2 in
  let on_ = sweep_workload ~obs:(Obs.create ~trace:true ()) ~jobs:2 in
  Alcotest.(check bool)
    "observability never changes the numbers" true
    (compare off on_ = 0);
  (* the disabled handle threaded through that whole run stayed silent *)
  let prof = Obs.profile Obs.disabled in
  Alcotest.(check string) "no metrics" "" (Obs.metrics_jsonl Obs.disabled);
  Alcotest.(check int) "no profile paths" 0 (List.length (Obs.Prof.paths prof));
  Alcotest.(check string) "empty profile" "" (Obs.Prof.to_collapsed prof)

(* --- Tracing: nesting, ordering, Chrome export --------------------- *)

(* within one tid, closed spans must be properly nested: any two either
   are disjoint in time or one contains the other *)
let check_nesting events =
  let tol = 1e-9 in
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      let prev = try Hashtbl.find by_tid e.tid with Not_found -> [] in
      Hashtbl.replace by_tid e.tid (e :: prev))
    events;
  Hashtbl.iter
    (fun _ es ->
      List.iteri
        (fun i (a : Obs.Trace.event) ->
          List.iteri
            (fun j (b : Obs.Trace.event) ->
              if i < j then begin
                let a0 = a.ts and a1 = a.ts +. a.dur in
                let b0 = b.ts and b1 = b.ts +. b.dur in
                let disjoint = a1 <= b0 +. tol || b1 <= a0 +. tol in
                let a_in_b = b0 <= a0 +. tol && a1 <= b1 +. tol in
                let b_in_a = a0 <= b0 +. tol && b1 <= a1 +. tol in
                if not (disjoint || a_in_b || b_in_a) then
                  Alcotest.failf "spans %s and %s overlap without nesting"
                    a.name b.name
              end)
            es)
        es)
    by_tid

let test_span_nesting_parallel () =
  let obs = Obs.create ~trace:true () in
  ignore (sweep_workload ~obs ~jobs:2);
  match Obs.trace obs with
  | None -> Alcotest.fail "trace sink expected"
  | Some tr ->
    let events = Obs.Trace.events tr in
    Alcotest.(check bool) "events recorded" true (events <> []);
    (* the sweep itself must appear, wrapping the run on its tid *)
    Alcotest.(check bool)
      "sizing.sweep span present" true
      (List.exists (fun (e : Obs.Trace.event) -> e.name = "sizing.sweep")
         events);
    check_nesting events;
    (* events come back sorted by start time *)
    let rec sorted = function
      | (a : Obs.Trace.event) :: (b :: _ as rest) ->
        a.ts <= b.ts && sorted rest
      | _ -> true
    in
    Alcotest.(check bool) "events sorted by ts" true (sorted events)

let test_chrome_trace_validates () =
  let obs = Obs.create ~trace:true () in
  ignore (sweep_workload ~obs ~jobs:2);
  let file = Filename.temp_file "obs_test" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Obs.write_trace obs file;
      match Obs.Trace.validate_file file with
      | Error msgs ->
        Alcotest.failf "trace invalid: %s" (String.concat "; " msgs)
      | Ok check ->
        Alcotest.(check bool)
          "events checked" true
          (check.Obs.Trace.events_checked > 0);
        Alcotest.(check bool) "tids seen" true (check.Obs.Trace.tids >= 1);
        (* the breakpoint-engine sweep must reconcile simulate spans
           against the bp.simulations counter ("breakpoint simulations"
           in the validator's own wording) *)
        Alcotest.(check bool)
          "bp.simulate reconciled against counter" true
          (List.exists
             (fun (what, spans, counter) ->
               let re = "simulations" in
               let n = String.length what and m = String.length re in
               let rec find i =
                 i + m <= n && (String.sub what i m = re || find (i + 1))
               in
               find 0 && abs (spans - counter) <= 1)
             check.Obs.Trace.reconciled))

(* --- Hist.percentiles: bucket-edge semantics ----------------------- *)

let test_percentile_edges () =
  let bounds = [| 1.0; 2.0; 4.0 |] in
  let pct counts p = Obs.Metrics.Hist.percentile ~bounds ~counts p in
  (* empty histogram answers 0 *)
  Alcotest.(check (float 0.0)) "empty" 0.0 (pct [| 0; 0; 0; 0 |] 50.0);
  (* 2 samples in (0,1], one each in (1,2] and (2,4] *)
  let counts = [| 2; 1; 1; 0 |] in
  Alcotest.(check (float 1e-9)) "p0 at lower edge" 0.0 (pct counts 0.0);
  Alcotest.(check (float 1e-9)) "p50 at first bucket edge" 1.0
    (pct counts 50.0);
  Alcotest.(check (float 1e-9)) "p100 at last populated edge" 4.0
    (pct counts 100.0);
  (* linear interpolation inside a bucket *)
  Alcotest.(check (float 1e-9))
    "p25 interpolates" 2.5
    (Obs.Metrics.Hist.percentile ~bounds:[| 10.0 |] ~counts:[| 4; 0 |] 25.0);
  (* overflow samples clamp to the last finite edge *)
  Alcotest.(check (float 1e-9)) "overflow clamps" 4.0
    (pct [| 0; 0; 0; 5 |] 50.0);
  (* out-of-range p rejected *)
  Alcotest.(check bool)
    "p > 100 raises" true
    (try
       ignore (pct counts 101.0);
       false
     with Invalid_argument _ -> true);
  (* the triple helper and the Dist bridge agree *)
  let p50, p90, p99 = Obs.Metrics.Hist.percentiles ~bounds ~counts in
  let m = Obs.Metrics.create () in
  List.iter
    (Obs.Metrics.observe ~buckets:bounds m "h")
    [ 0.5; 0.7; 1.5; 3.0 ];
  (match Obs.Metrics.get m "h" with
  | Some v ->
    (match Obs.Metrics.Hist.percentiles_of_value v with
    | Some (q50, q90, q99) ->
      Alcotest.(check (float 1e-9)) "bridge p50" p50 q50;
      Alcotest.(check (float 1e-9)) "bridge p90" p90 q90;
      Alcotest.(check (float 1e-9)) "bridge p99" p99 q99
    | None -> Alcotest.fail "expected percentiles from a populated Dist")
  | None -> Alcotest.fail "histogram missing");
  Alcotest.(check bool)
    "empty Dist yields None" true
    (Obs.Metrics.Hist.percentiles_of_value (Obs.Metrics.Count 3) = None)

(* --- Prof: call-tree construction and exports ---------------------- *)

let test_prof_construction () =
  let ev name tid ts dur depth =
    { Obs.Trace.name; tid; ts; dur; depth; args = [] }
  in
  (* root [0,10] with two "child" calls at depth 1 *)
  let events =
    [ ev "root" 0 0.0 10.0 0; ev "child" 0 1.0 3.0 1; ev "child" 0 5.0 2.0 1 ]
  in
  let p = Obs.Prof.of_events events in
  (match Obs.Prof.paths p with
  | [ a; b ] ->
    Alcotest.(check (list string)) "root path" [ "root" ] a.Obs.Prof.path;
    Alcotest.(check int) "root calls" 1 a.Obs.Prof.calls;
    Alcotest.(check (float 1e-9)) "root total" 10.0 a.Obs.Prof.total_s;
    Alcotest.(check (float 1e-9)) "root self = total - children" 5.0
      a.Obs.Prof.self_s;
    Alcotest.(check (list string))
      "child path" [ "root"; "child" ] b.Obs.Prof.path;
    Alcotest.(check int) "child calls" 2 b.Obs.Prof.calls;
    Alcotest.(check (float 1e-9)) "child total" 5.0 b.Obs.Prof.total_s;
    Alcotest.(check (float 1e-9)) "child self" 5.0 b.Obs.Prof.self_s
  | ns -> Alcotest.failf "expected 2 paths, got %d" (List.length ns));
  Alcotest.(check string)
    "golden is label + calls, name-sorted" "child 2\nroot 1\n"
    (Obs.Prof.golden p);
  Alcotest.(check string)
    "collapsed stacks carry self-microseconds"
    "root 5000000\nroot;child 5000000\n"
    (Obs.Prof.to_collapsed p);
  (* labels aggregate across paths *)
  (match Obs.Prof.labels p with
  | [ ("child", 2, ct, cs); ("root", 1, rt, rs) ] ->
    Alcotest.(check (float 1e-9)) "child label total" 5.0 ct;
    Alcotest.(check (float 1e-9)) "child label self" 5.0 cs;
    Alcotest.(check (float 1e-9)) "root label total" 10.0 rt;
    Alcotest.(check (float 1e-9)) "root label self" 5.0 rs
  | _ -> Alcotest.fail "unexpected label aggregation");
  Alcotest.(check bool) "empty profile renders empty" true
    (Obs.Prof.to_collapsed Obs.Prof.empty = "")

let collapsed_line_ok line =
  (* "frame[;frame]* <integer-microseconds>" *)
  match String.rindex_opt line ' ' with
  | None -> false
  | Some i ->
    i > 0
    && (match
          int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
        with
       | Some us -> us >= 0
       | None -> false)

let test_profile_collapsed_parseable () =
  let obs = Obs.create ~trace:true () in
  ignore (sweep_workload ~obs ~jobs:2);
  let collapsed = Obs.Prof.to_collapsed (Obs.profile obs) in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' collapsed)
  in
  Alcotest.(check bool) "collapsed output nonempty" true (lines <> []);
  List.iter
    (fun l ->
      if not (collapsed_line_ok l) then
        Alcotest.failf "bad collapsed-stack line: %S" l)
    lines

(* the timing-free golden view must be byte-identical whatever the
   worker count or cache configuration: the same spans run either way *)
let test_profile_golden_invariant () =
  let golden ~jobs ~cache =
    let obs = Obs.create ~trace:true () in
    let ch = Fixtures.chain 5 in
    let ctx =
      Eval.Ctx.default |> Eval.Ctx.with_obs obs |> Eval.Ctx.with_jobs jobs
    in
    let ctx =
      if cache then Eval.Ctx.with_cache (Eval.Cache.create ()) ctx else ctx
    in
    ignore
      (Mtcmos.Sizing.sweep ~ctx ch.Circuits.Chain.circuit
         ~vectors:[ ([ (1, 0) ], [ (1, 1) ]); ([ (1, 1) ], [ (1, 0) ]) ]
         ~wls:[ 2.0; 5.0; 10.0; 20.0 ]);
    Obs.Prof.golden (Obs.profile obs)
  in
  let reference = golden ~jobs:1 ~cache:false in
  Alcotest.(check bool) "golden nonempty" true (reference <> "");
  List.iter
    (fun (jobs, cache) ->
      Alcotest.(check string)
        (Printf.sprintf "golden identical at jobs=%d cache=%b" jobs cache)
        reference
        (golden ~jobs ~cache))
    [ (4, false); (1, true); (4, true) ]

(* --- fast transient path: traces stay valid ------------------------ *)

let test_trace_valid_fast_bypass () =
  List.iter
    (fun jobs ->
      let obs = Obs.create ~trace:true () in
      let ch = Fixtures.chain 5 in
      let ctx =
        Eval.Ctx.default
        |> Eval.Ctx.with_engine Eval.Spice_level
        |> Eval.Ctx.with_fast `Reduce_bypass
        |> Eval.Ctx.with_obs obs |> Eval.Ctx.with_jobs jobs
      in
      ignore
        (Mtcmos.Sizing.sweep ~ctx ch.Circuits.Chain.circuit
           ~vectors:[ ([ (1, 0) ], [ (1, 1) ]) ]
           ~wls:[ 5.0; 20.0 ]);
      (match Obs.trace obs with
      | None -> Alcotest.fail "trace sink expected"
      | Some tr ->
        (match
           Obs.Trace.validate_string
             (Obs.Trace.to_chrome_json ~metrics:(Obs.metrics obs) tr)
         with
        | Ok check ->
          Alcotest.(check bool)
            (Printf.sprintf "events checked at jobs=%d" jobs)
            true
            (check.Obs.Trace.events_checked > 0)
        | Error msgs ->
          Alcotest.failf "fast-bypass trace invalid at jobs=%d: %s" jobs
            (String.concat "; " msgs)));
      (* the bypass instrumentation actually fired *)
      let m = Obs.metrics obs in
      Alcotest.(check bool)
        "bypass hit/miss counters recorded" true
        (Obs.Metrics.count m "spice.bypass.hits"
         + Obs.Metrics.count m "spice.bypass.misses"
         > 0);
      Alcotest.(check (float 0.0))
        "fast_mode gauge says reduce-bypass" 2.0
        (Obs.Metrics.valuef m "spice.fast_mode"))
    [ 1; 4 ]

(* --- Event_sim telemetry ------------------------------------------- *)

let test_event_sim_telemetry () =
  let module E = Netlist.Event_sim in
  let module S = Netlist.Signal in
  let ch = Fixtures.chain 6 in
  let c = ch.Circuits.Chain.circuit in
  let es = E.of_circuit c in
  let obs = Obs.create () in
  let state = ref (E.init es [| S.L0 |]) in
  let steps = 8 in
  for i = 1 to steps do
    let v = if i mod 2 = 0 then S.L0 else S.L1 in
    let m = E.step ~obs es !state [| v |] in
    state := m.E.post
  done;
  let m = Obs.metrics obs in
  Alcotest.(check int) "one counter tick per step" steps
    (Obs.Metrics.count m "event_sim.steps");
  Alcotest.(check bool)
    "touched gates accumulated" true
    (Obs.Metrics.count m "event_sim.touched_gates" > 0);
  (match Obs.Metrics.get m "event_sim.touched_per_step" with
  | Some (Obs.Metrics.Dist d) ->
    Alcotest.(check int) "touched histogram total = steps" steps d.total
  | _ -> Alcotest.fail "expected touched_per_step Dist");
  (match Obs.Metrics.get m "event_sim.pending_words_per_step" with
  | Some (Obs.Metrics.Dist d) ->
    Alcotest.(check int) "pending-bitset histogram total = steps" steps
      d.total
  | _ -> Alcotest.fail "expected pending_words_per_step Dist");
  (* disabled handle: same run, zero events *)
  let off = Obs.disabled in
  let st2 = ref (E.init es [| S.L0 |]) in
  let m2 = E.step ~obs:off es !st2 [| S.L1 |] in
  st2 := m2.E.post;
  Alcotest.(check bool)
    "disabled run records nothing" true
    (Obs.Metrics.dump (Obs.metrics off) = [])

(* --- QCheck properties --------------------------------------------- *)

(* sharding invariance: however a stream of counter increments is
   partitioned over shards, the merged totals equal the sequential
   registry's *)
let prop_partition_invariant =
  QCheck.Test.make ~count:100 ~name:"obs: shard partition never changes totals"
    QCheck.(
      pair (int_range 1 6)
        (list_of_size Gen.(int_range 0 60)
           (pair (int_range 0 4) (int_range 1 9))))
    (fun (nshards, ops) ->
      let name i = Printf.sprintf "m%d" i in
      let seq = Obs.Metrics.create () in
      List.iter (fun (i, by) -> Obs.Metrics.incr ~by seq (name i)) ops;
      let shards = Array.init nshards (fun _ -> Obs.Metrics.create ()) in
      List.iteri
        (fun k (i, by) ->
          Obs.Metrics.incr ~by shards.(k mod nshards) (name i))
        ops;
      let merged = Obs.Metrics.create () in
      Array.iter (fun s -> Obs.Metrics.merge ~into:merged s) shards;
      Obs.Metrics.dump merged = Obs.Metrics.dump seq)

(* histogram conservation: bucket counts partition the samples *)
let prop_histogram_conserves =
  QCheck.Test.make ~count:100 ~name:"obs: histogram buckets partition samples"
    QCheck.(list_of_size Gen.(int_range 0 50) (float_range 0.0 500.0))
    (fun vs ->
      let m = Obs.Metrics.create () in
      List.iter (Obs.Metrics.observe m "h") vs;
      match Obs.Metrics.get m "h" with
      | None -> vs = []
      | Some (Obs.Metrics.Dist d) ->
        d.total = List.length vs
        && Array.fold_left ( + ) 0 d.counts = d.total
      | Some _ -> false)

(* --- Pool observability ------------------------------------------- *)

let test_map_obs () =
  (* observing a pool call changes none of its results and records the
     pool's self-metrics *)
  let n = 13 in
  let plain = Fixtures.pool_map ~jobs:3 ~chunk:2 n string_of_int in
  let obs = Obs.create () in
  let with_obs = Fixtures.pool_map ~obs ~jobs:3 ~chunk:2 n string_of_int in
  Alcotest.(check (array string)) "same results" plain with_obs;
  let m = Obs.metrics obs in
  Alcotest.(check bool)
    "pool call recorded" true
    (Obs.Metrics.count m "par.pool.calls" >= 1);
  Alcotest.(check (float 0.0)) "jobs gauge" 3.0 (Obs.Metrics.valuef m "par.jobs")

(* bp.rail_solves counts the rail equilibria a simulation needs (memo
   hits included, reuses within the simulation not): at most one per
   block per breakpoint plus the initial one, none on CMOS *)
let test_bp_rail_solves () =
  let module BP = Mtcmos.Breakpoint_sim in
  let c = Fixtures.adder_circuit 4 in
  let counts config =
    let obs = Obs.create () in
    ignore
      (BP.simulate_ints ~config ~obs c ~before:[ (4, 0); (4, 0) ]
         ~after:[ (4, 15); (4, 1) ]);
    let m = Obs.metrics obs in
    ( Obs.Metrics.count m "bp.rail_solves",
      Obs.Metrics.count m "bp.events",
      Obs.Report.render m None )
  in
  let solves, events, report = counts (BP.mtcmos_config tech ~wl:8.0) in
  Alcotest.(check bool) "mtcmos solves something" true (solves > 0);
  (* the second run's equilibria all come from the cross-simulation
     memo, and still count *)
  let again, _, _ = counts (BP.mtcmos_config tech ~wl:8.0) in
  Alcotest.(check int) "same count when run again" solves again;
  Alcotest.(check bool) "at most one solve per breakpoint" true
    (solves <= events + 1);
  Alcotest.(check bool) "report prints it" true
    (Test_analysis.string_contains report "rail solves");
  let cmos_solves, _, _ = counts BP.default_config in
  Alcotest.(check int) "cmos solves nothing" 0 cmos_solves

(* the selective optimizer's counters reach the run report; none of
   them depends on the worker count *)
let test_selective_report () =
  let c = Fixtures.adder_circuit 4 in
  let run jobs =
    let obs = Obs.create () in
    let ctx = Eval.Ctx.(default |> with_obs obs |> with_jobs jobs) in
    let r = Mtcmos.Selective.optimize ~ctx c ~delay_budget:0.1 in
    (r, Obs.Metrics.count (Obs.metrics obs) "selective.evaluations",
     Obs.report obs)
  in
  let r, evaluations, report = run 1 in
  Alcotest.(check int) "evaluations counter = result.evaluations"
    r.Mtcmos.Selective.evaluations evaluations;
  let row label v = Printf.sprintf "  %-22s %d\n" label v in
  let block =
    "selective optimizer:\n"
    ^ row "evaluations" evaluations
    ^ row "flips" r.Mtcmos.Selective.flips_to_low
    ^ row "reclaims" r.Mtcmos.Selective.reclaimed
    ^ row "moves" r.Mtcmos.Selective.moves
  in
  Alcotest.(check bool) "report prints all four" true
    (Test_analysis.string_contains report block);
  let _, _, report2 = run 2 in
  Alcotest.(check bool) "the same block at jobs 2" true
    (Test_analysis.string_contains report2 block)

let suite =
  [ Alcotest.test_case "histogram bucket edges" `Quick
      test_histogram_bucket_edges;
    Alcotest.test_case "map records pool metrics" `Quick test_map_obs;
    Alcotest.test_case "metric kind clash rejected" `Quick
      test_kind_clash_rejected;
    Alcotest.test_case "merge: counters add, gauges max" `Quick
      test_merge_semantics;
    Alcotest.test_case "registry identical at jobs 1/2/4" `Slow
      test_registry_merge_deterministic;
    Alcotest.test_case "disabled path records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "disabled vs enabled: identical numbers" `Quick
      test_disabled_results_identical;
    Alcotest.test_case "span nesting under jobs=2" `Quick
      test_span_nesting_parallel;
    Alcotest.test_case "chrome trace validates + reconciles" `Quick
      test_chrome_trace_validates;
    Alcotest.test_case "percentiles: bucket edges and interpolation" `Quick
      test_percentile_edges;
    Alcotest.test_case "prof: call tree, self time, exports" `Quick
      test_prof_construction;
    Alcotest.test_case "prof: collapsed stacks parse" `Quick
      test_profile_collapsed_parseable;
    Alcotest.test_case "prof: golden invariant in jobs and cache" `Slow
      test_profile_golden_invariant;
    Alcotest.test_case "trace valid under --fast reduce-bypass" `Quick
      test_trace_valid_fast_bypass;
    Alcotest.test_case "event_sim telemetry counters" `Quick
      test_event_sim_telemetry;
    Alcotest.test_case "bp.rail_solves bounded by events" `Quick
      test_bp_rail_solves;
    Alcotest.test_case "selective counters in the report" `Quick
      test_selective_report;
    Prop.to_alcotest prop_partition_invariant;
    Prop.to_alcotest prop_histogram_conserves ]
