(* Differential equivalence of the event-driven switch-level core
   (Netlist.Event_sim) against the dense reference evaluator
   (Netlist.Logic_sim), on random DAG circuits and on the sized
   fixtures.  The dense evaluator stays in the tree precisely so these
   properties keep meaning something: the fast path must be
   bit-identical — steady states, switched/falling gate lists (contents
   *and* order) and activity counts — across jobs ∈ {1, 4} and cache
   on/off.

   Sizes honour MTSIZE_TEST_SCALE (Fixtures.scaled): tier-1 runs small,
   CI can multiply everything up. *)

module S = Netlist.Signal
module L = Netlist.Logic_sim
module E = Netlist.Event_sim
module C = Netlist.Circuit

let tech = Fixtures.tech

(* deterministic vector of levels; [x_every] > 0 sprinkles X pins *)
let vec_of st ?(x_every = 0) n =
  Array.init n (fun _ ->
      if x_every > 0 && Random.State.int st x_every = 0 then S.X
      else S.of_bool (Random.State.bool st))

(* flip [k] input positions of [v] *)
let perturb st v k =
  let v = Array.copy v in
  for _ = 1 to k do
    let i = Random.State.int st (Array.length v) in
    v.(i) <- (match v.(i) with S.L0 -> S.L1 | S.L1 -> S.L0 | S.X -> S.L1)
  done;
  v

let same_levels a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> S.equal x y) a b

(* the whole contract for one transition *)
let agrees c es before after =
  let s0 = L.eval c before in
  let s1 = L.eval c after in
  let m = E.transition es ~before ~after in
  same_levels (E.levels es m.E.pre) s0
  && same_levels (E.levels es m.E.post) s1
  && E.switched_gates es m = L.switched_gates c s0 s1
  && E.falling_gates es m = L.falling_gates c s0 s1
  && E.activity es m = L.activity c s0 s1

let random_case (seed, gates, flips) =
  let inputs = 2 + (seed mod 29) in
  let r = Fixtures.random_cloud ~seed ~inputs ~gates () in
  let c = r.Circuits.Random_logic.circuit in
  let es = E.of_circuit c in
  let st = Random.State.make [| seed; gates |] in
  (c, es, st, inputs, flips)

let gen_case =
  QCheck.make
    ~print:(fun (seed, gates, flips) ->
      Printf.sprintf "seed=%d gates=%d flips=%d" seed gates flips)
    QCheck.Gen.(
      triple (int_bound 100_000)
        (int_range 10 (Fixtures.scaled 5_000))
        (int_range 1 6))

let prop_event_matches_dense =
  QCheck.Test.make ~count:40
    ~name:"event-driven engine == dense eval on random DAGs" gen_case
    (fun case ->
      let c, es, st, inputs, _ = random_case case in
      (* one clean 0/1 pair and one X-bearing pair per circuit *)
      let b0 = vec_of st inputs and a0 = vec_of st inputs in
      let b1 = vec_of st ~x_every:8 inputs
      and a1 = vec_of st ~x_every:8 inputs in
      agrees c es b0 a0 && agrees c es b1 a1)

let prop_chained_steps_match_dense =
  QCheck.Test.make ~count:25
    ~name:"chained event steps track dense eval at every vector" gen_case
    (fun case ->
      let c, es, st, inputs, flips = random_case case in
      let v = ref (vec_of st inputs) in
      let state = ref (E.init es !v) in
      let ok = ref (same_levels (E.levels es !state) (L.eval c !v)) in
      for _ = 1 to 5 do
        let v' = perturb st !v flips in
        let m = E.step es !state v' in
        let s0 = L.eval c !v and s1 = L.eval c v' in
        ok :=
          !ok
          && same_levels (E.levels es m.E.post) s1
          && E.switched_gates es m = L.switched_gates c s0 s1
          && E.falling_gates es m = L.falling_gates c s0 s1;
        state := m.E.post;
        v := v'
      done;
      !ok)

(* one shared compiled circuit, hammered from concurrent worker
   domains: results must match the sequential reference exactly *)
let test_shared_compilation_across_jobs () =
  let r = Fixtures.random_cloud ~seed:11 ~inputs:16
      ~gates:(Fixtures.scaled 800) () in
  let c = r.Circuits.Random_logic.circuit in
  let es = E.of_circuit c in
  let st = Random.State.make [| 3; 5 |] in
  let pairs =
    Array.init 24 (fun _ -> (vec_of st 16, vec_of st 16))
  in
  let run (before, after) =
    let m = E.transition es ~before ~after in
    (E.activity es m, E.falling_gates es m)
  in
  let reference = Array.map run pairs in
  List.iter
    (fun jobs ->
      let got =
        Fixtures.pool_map ~jobs (Array.length pairs) (fun i ->
            (* of_circuit from inside the worker must hit the memo *)
            let es' = E.of_circuit c in
            let before, after = pairs.(i) in
            let m = E.transition es' ~before ~after in
            (E.activity es' m, E.falling_gates es' m))
      in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d identical" jobs)
        true (got = reference))
    [ 1; 4 ]

(* the ctx-threaded analyses sit on the event core via Breakpoint_sim:
   sweep results must stay bit-identical across jobs and cache state *)
let test_ctx_jobs_cache_invariance () =
  let c = Fixtures.random_circuit ~seed:5 ~inputs:6 ~gates:42 () in
  let widths = List.init 6 (fun _ -> 1) in
  let vectors = Mtcmos.Vectors.random_pairs ~seed:9 ~widths 3 in
  let run ~jobs ~cached =
    let ctx = Eval.Ctx.default |> Eval.Ctx.with_jobs jobs in
    let ctx =
      if cached then Eval.Ctx.with_cache (Eval.Cache.create ()) ctx
      else ctx
    in
    Mtcmos.Sizing.sweep ~ctx c ~vectors ~wls:[ 20.0; 60.0 ]
  in
  let reference = run ~jobs:1 ~cached:false in
  List.iter
    (fun (jobs, cached) ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d cache=%b identical" jobs cached)
        true
        (run ~jobs ~cached = reference))
    [ (1, true); (4, false); (4, true) ]

(* the sized fixtures: structured circuits with reconvergence (prefix
   trees, CSA arrays), not just random clouds *)
let test_sized_fixtures_agree () =
  let check name c inputs =
    let es = E.of_circuit c in
    let st = Random.State.make [| 17 |] in
    for i = 1 to 6 do
      let before = vec_of st inputs and after = vec_of st inputs in
      Alcotest.(check bool)
        (Printf.sprintf "%s pair %d" name i)
        true (agrees c es before after)
    done
  in
  let ks = Fixtures.kogge_circuit (Fixtures.scaled 32) in
  check "kogge-stone" ks (Array.length (C.inputs ks));
  let mu = Fixtures.mult_circuit (min 16 (Fixtures.scaled 8)) in
  check "csa-multiplier" mu (Array.length (C.inputs mu));
  let rc =
    Fixtures.random_circuit ~seed:29 ~inputs:24
      ~gates:(Fixtures.scaled 5_000) ()
  in
  check "random-cloud" rc 24

(* sparsity sanity: a 1-input flip on a big cloud must not visit the
   whole netlist (this is the property the speedup gate depends on) *)
let test_touched_set_is_sparse () =
  let gates = Fixtures.scaled 5_000 in
  let r = Fixtures.random_cloud ~seed:3 ~inputs:32 ~gates () in
  let c = r.Circuits.Random_logic.circuit in
  let es = E.of_circuit c in
  let st = Random.State.make [| 41 |] in
  let before = vec_of st 32 in
  let after = perturb st before 1 in
  let m = E.transition es ~before ~after in
  let touched = List.length m.E.touched in
  Alcotest.(check bool)
    (Printf.sprintf "touched %d of %d gates" touched gates)
    true
    (touched < gates / 2)

let suite =
  [ Prop.to_alcotest prop_event_matches_dense;
    Prop.to_alcotest prop_chained_steps_match_dense;
    Alcotest.test_case "shared compilation across jobs" `Quick
      test_shared_compilation_across_jobs;
    Alcotest.test_case "ctx jobs/cache invariance on the event core"
      `Quick test_ctx_jobs_cache_invariance;
    Alcotest.test_case "sized fixtures agree" `Quick
      test_sized_fixtures_agree;
    Alcotest.test_case "touched set is sparse" `Quick
      test_touched_set_is_sparse ]
