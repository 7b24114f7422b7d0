(* Par.Pool determinism suite: the parallel results must be bit-for-bit
   the sequential ones for every worker count, worker failures must
   propagate (not hang), and the per-worker accumulator merge must see
   states in worker order with exact counter totals. *)

let tech = Fixtures.tech

let check_float_array = Alcotest.(check (array (float 0.0)))

(* a workload whose result depends on the index in a non-trivial way *)
let work i =
  let x = float_of_int (i + 1) in
  (sin x *. sqrt x) +. (1.0 /. x)

let test_map_matches_sequential () =
  let n = 37 in
  let expected = Array.init n work in
  List.iter
    (fun jobs ->
      check_float_array
        (Printf.sprintf "map jobs=%d" jobs)
        expected
        (Fixtures.pool_map ~jobs n work);
      (* non-default chunking must not change the result either *)
      check_float_array
        (Printf.sprintf "map jobs=%d chunk=3" jobs)
        expected
        (Fixtures.pool_map ~jobs ~chunk:3 n work))
    [ 1; 2; 8 ]

let test_map_edge_sizes () =
  List.iter
    (fun jobs ->
      check_float_array "empty" [||] (Fixtures.pool_map ~jobs 0 work);
      check_float_array "singleton" [| work 0 |] (Fixtures.pool_map ~jobs 1 work))
    [ 1; 2; 8 ]

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "worker exception jobs=%d" jobs)
        (Boom 5)
        (fun () ->
          ignore
            (Fixtures.pool_map ~jobs 16 (fun i ->
                 if i = 5 then raise (Boom i) else work i))))
    [ 1; 2; 8 ]

let test_exception_lowest_worker_wins () =
  (* with chunk=1 and jobs=2, index 0 belongs to worker 0 and index 1 to
     worker 1; both fail, and the deterministic rule is that the lowest
     failing worker's exception surfaces *)
  Alcotest.check_raises "lowest worker's exception" (Boom 0) (fun () ->
      ignore
        (Fixtures.pool_map ~jobs:2 ~chunk:1 8 (fun i ->
             if i <= 1 then raise (Boom i) else work i)))

let test_stateful_worker_order () =
  (* chunk=1, jobs=2, n=6: worker 0 owns indices 0,2,4 and worker 1 owns
     1,3,5.  The merged trace must list worker 0's indices (in index
     order) then worker 1's — static assignment, worker-order merge. *)
  let trace = ref [] in
  let results =
    Par.Pool.map_stateful ~jobs:2 ~chunk:1
      ~create:(fun () -> ref [])
      ~merge:(fun w -> trace := !trace @ List.rev !w)
      6
      (fun w i ->
        w := i :: !w;
        i * 10)
  in
  Alcotest.(check (array int))
    "results in index order"
    [| 0; 10; 20; 30; 40; 50 |]
    results;
  Alcotest.(check (list int)) "worker-order merge" [ 0; 2; 4; 1; 3; 5 ] !trace

(* how [map] resolves its [?jobs]: an explicit count is used as given,
   an omitted one means 1 (sequential), and a count below 1 is rejected *)
let test_resolve_jobs () =
  let expected = Array.init 4 work in
  check_float_array "explicit" expected (Fixtures.pool_map ~jobs:3 4 work);
  check_float_array "default" expected (Fixtures.pool_map 4 work);
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Par.Pool: jobs = 0") (fun () ->
      ignore (Fixtures.pool_map ~jobs:0 4 work))

(* resilience accounting under parallelism: a transistor-level sweep
   whose recovery budget is deliberately strangled must report the same
   counters (and the same measurements) at jobs = 1 and jobs = 2 *)
let test_resilience_counters_match_sequential () =
  let ch = Fixtures.chain 4 in
  let c = ch.Circuits.Chain.circuit in
  let vec = ([ (1, 0) ], [ (1, 1) ]) in
  let run jobs =
    let stats = Eval.Resilience.create () in
    let ms =
      Mtcmos.Sizing.sweep
        ~ctx:
          Eval.Ctx.(
            default |> with_engine Eval.Spice_level |> with_stats stats
            |> with_newton_budget (Some 4) |> with_jobs jobs)
        c ~vectors:[ vec ] ~wls:[ 2.0; 5.0; 10.0; 20.0 ]
    in
    (ms, stats)
  in
  let ms1, s1 = run 1 in
  let ms2, s2 = run 2 in
  Alcotest.(check bool) "measurements identical" true (ms1 = ms2);
  let counters (s : Eval.Resilience.t) =
    ( s.Eval.Resilience.attempted,
      s.Eval.Resilience.direct,
      s.Eval.Resilience.recovered,
      s.Eval.Resilience.skipped,
      s.Eval.Resilience.fallback,
      s.Eval.Resilience.scored_zero )
  in
  Alcotest.(check (pair int (pair int (pair int (pair int (pair int int))))))
    "counters identical"
    (let a, b, c', d, e, f = counters s1 in
     (a, (b, (c', (d, (e, f))))))
    (let a, b, c', d, e, f = counters s2 in
     (a, (b, (c', (d, (e, f))))));
  Alcotest.(check (list (pair string int)))
    "recovery strategies identical" s1.Eval.Resilience.strategies
    s2.Eval.Resilience.strategies;
  let skip_tags (s : Eval.Resilience.t) =
    List.map (fun (label, _, _) -> label) s.Eval.Resilience.skips
  in
  Alcotest.(check (list string))
    "skip labels identical" (skip_tags s1) (skip_tags s2);
  Alcotest.(check bool)
    "something was attempted" true
    (s1.Eval.Resilience.attempted > 0)

(* the Search.score zero-conflation fix: a transient that fails after
   recovery scores 0 AND is recorded as a Scored_zero skip, while an
   honest nothing-switches transition scores 0 with successful analyses
   and no skip — the accumulator can now tell them apart *)
let test_scored_zero_distinct_from_quiet_zero () =
  let ch = Fixtures.chain 3 in
  let c = ch.Circuits.Chain.circuit in
  let sleep =
    Mtcmos.Breakpoint_sim.Sleep_fet (Device.Sleep.nmos_footer tech ~wl:6.0)
  in
  (* nothing switches: before = after *)
  let quiet = Eval.Resilience.create () in
  let s_quiet =
    Mtcmos.Search.score
      ~ctx:
        Eval.Ctx.(
          default |> with_engine Eval.Spice_level |> with_stats quiet)
      c ~sleep Mtcmos.Search.Max_degradation
      ([ (1, 0) ], [ (1, 0) ])
  in
  Alcotest.(check (float 0.0)) "quiet zero" 0.0 s_quiet;
  Alcotest.(check int) "quiet: no skips" 0 quiet.Eval.Resilience.skipped;
  Alcotest.(check int)
    "quiet: no scored-zero" 0 quiet.Eval.Resilience.scored_zero;
  Alcotest.(check bool)
    "quiet: analyses succeeded" true
    (quiet.Eval.Resilience.attempted > 0
    && quiet.Eval.Resilience.direct + quiet.Eval.Resilience.recovered
       = quiet.Eval.Resilience.attempted);
  (* transient failure: a one-iteration Newton budget cannot converge *)
  let broken = Eval.Resilience.create () in
  let s_broken =
    Mtcmos.Search.score
      ~ctx:
        Eval.Ctx.(
          default |> with_engine Eval.Spice_level |> with_stats broken
          |> with_newton_budget (Some 1))
      c ~sleep Mtcmos.Search.Max_degradation
      ([ (1, 0) ], [ (1, 1) ])
  in
  Alcotest.(check (float 0.0)) "failure scores zero" 0.0 s_broken;
  Alcotest.(check bool)
    "failure recorded as scored-zero" true
    (broken.Eval.Resilience.scored_zero > 0);
  Alcotest.(check int)
    "scored-zero skips are the only skips"
    broken.Eval.Resilience.skipped broken.Eval.Resilience.scored_zero;
  (* and the report names them *)
  let report = Format.asprintf "%a" Eval.Resilience.pp_report broken in
  Alcotest.(check bool)
    "report mentions scored-0 candidates" true
    (let re = "scored 0" in
     let n = String.length report and m = String.length re in
     let rec find i = i + m <= n && (String.sub report i m = re || find (i + 1)) in
     find 0)

(* a pool inside another pool's worker (a spice sweep's per-vector map
   inside its per-W/L map) must not add its busy time to the enclosing
   worker's: each worker stays busy for at most the run's wall time *)
let test_nested_busy_within_wall () =
  List.iter
    (fun jobs ->
      let obs = Obs.create () in
      let t0 = Unix.gettimeofday () in
      ignore
        (Par.Pool.map_stateful ~obs ~jobs ~chunk:1
           ~create:(fun () -> Obs.shard obs)
           ~merge:(fun o -> Obs.merge_shard ~into:obs o)
           4
           (fun wobs _ ->
             Par.Pool.map_stateful ~obs:wobs ~create:ignore ~merge:ignore 2
               (fun () _ -> Unix.sleepf 0.01)));
      let wall = Unix.gettimeofday () -. t0 in
      let m = Obs.metrics obs in
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: every pool call counted" jobs)
        5
        (Obs.Metrics.count m "par.pool.calls");
      for w = 0 to jobs - 1 do
        let busy = Obs.Metrics.valuef m (Printf.sprintf "par.worker.%d.busy_s" w) in
        if not (busy > 0.0 && busy <= wall) then
          Alcotest.failf "jobs=%d: worker %d busy %.4f s in a %.4f s run" jobs
            w busy wall;
        Alcotest.(check int)
          (Printf.sprintf "jobs=%d: worker %d counts the outer tasks" jobs w)
          (4 / jobs)
          (Obs.Metrics.count m (Printf.sprintf "par.worker.%d.tasks" w))
      done)
    [ 1; 2 ]

let suite =
  [ Alcotest.test_case "map = sequential for jobs 1/2/8" `Quick
      test_map_matches_sequential;
    Alcotest.test_case "empty and singleton ranges" `Quick
      test_map_edge_sizes;
    Alcotest.test_case "worker exception propagates" `Quick
      test_exception_propagates;
    Alcotest.test_case "lowest failing worker wins" `Quick
      test_exception_lowest_worker_wins;
    Alcotest.test_case "stateful merge in worker order" `Quick
      test_stateful_worker_order;
    Alcotest.test_case "resolve_jobs" `Quick test_resolve_jobs;
    Alcotest.test_case "resilience counters match sequential" `Slow
      test_resilience_counters_match_sequential;
    Alcotest.test_case "scored-zero distinct from nothing-switches" `Quick
      test_scored_zero_distinct_from_quiet_zero;
    Alcotest.test_case "nested pools: busy within wall" `Quick
      test_nested_busy_within_wall ]
