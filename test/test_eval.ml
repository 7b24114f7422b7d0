(* Eval suite: key framing, LRU bounds, save/load persistence, and the
   headline invariant — caching is invisible: cache-on, cache-off, cold,
   warm, and every jobs count produce bit-identical measurements and
   identical resilience totals. *)

module E = Eval
module K = Eval.Key
module C = Eval.Cache

let tech = Fixtures.tech

let bits f = Int64.bits_of_float f

let check_float_bits msg a b =
  Alcotest.(check int64) msg (bits a) (bits b)

(* ---- Key: framing and exactness ----------------------------------------- *)

let test_key_framing () =
  let digest_of parts =
    let k = K.create () in
    List.iter (K.string k) parts;
    K.digest k
  in
  Alcotest.(check bool)
    "[ab;c] <> [a;bc]" false
    (digest_of [ "ab"; "c" ] = digest_of [ "a"; "bc" ]);
  Alcotest.(check bool)
    "[ab] <> [a;b]" false
    (digest_of [ "ab" ] = digest_of [ "a"; "b" ]);
  Alcotest.(check string)
    "deterministic" (digest_of [ "x"; "y" ]) (digest_of [ "x"; "y" ])

let test_key_float_exact () =
  let digest_of f =
    let k = K.create () in
    K.float k f;
    K.digest k
  in
  Alcotest.(check bool)
    "0. <> -0." false
    (digest_of 0.0 = digest_of (-0.0));
  Alcotest.(check bool)
    "nan has a stable digest" true
    (digest_of Float.nan = digest_of Float.nan);
  Alcotest.(check bool)
    "adjacent representable floats differ" false
    (digest_of 1.0 = digest_of (Float.succ 1.0))

(* Key.float writes the bytes Printf's "%Lx" gives for the bit pattern,
   so a cache file saved by a build that used Printf still hits *)
let prop_key_float_is_printf =
  let specials =
    List.map Int64.bits_of_float
      [ 0.0; -0.0; infinity; neg_infinity; Float.nan; Float.min_float;
        Float.max_float; Float.epsilon; 1.0 ]
    @ [ 0x1L; 0x000fffffffffffffL; 0x8000000000000001L;
        0x7ff0000000000001L; 0x7ff8000000000000L; 0xfff8000000000123L;
        0x7fffffffffffffffL; -1L; 0x10L; 0xf0L ]
  in
  QCheck.Test.make ~count:2000
    ~name:"key: Key.float = Printf \"%Lx\" of the bits"
    QCheck.(
      make ~print:(Printf.sprintf "%Lx")
        Gen.(
          oneof
            [ oneofl specials;
              int64;
              map (fun x -> Int64.shift_right_logical x 12) int64;
              map Int64.of_int (int_range 0 4096) ]))
    (fun bits ->
      let k = K.create () in
      K.float k (Int64.float_of_bits bits);
      K.contents k = Printf.sprintf "f%Lx;" bits)

(* Key.int and the length of Key.string write the digits string_of_int
   gives, so a cache file saved by a build that used it still hits *)
let prop_key_int_is_string_of_int =
  QCheck.Test.make ~count:2000 ~name:"key: Key.int = string_of_int"
    QCheck.(
      make ~print:string_of_int
        Gen.(
          oneof
            [ oneofl [ 0; -1; 9; 10; -10; max_int; min_int; min_int + 1 ];
              int;
              int_range (-1000) 1000 ]))
    (fun i ->
      let k = K.create () in
      K.int k i;
      let s = String.make (abs (i mod 300)) 'x' in
      K.string k s;
      K.contents k
      = Printf.sprintf "i%s;s%d:%s" (string_of_int i) (String.length s) s)

(* distinct evaluation points must get distinct digests: sweep a corpus
   of circuits / techs / sleep sizes / configs / vectors and check no
   two keys collide *)
let test_digest_corpus_distinct () =
  let circuits =
    [ Fixtures.chain_circuit 4;
      Fixtures.chain_circuit 5;
      (Fixtures.chain ~tech:Fixtures.tech03 4)
        .Circuits.Chain.circuit;
      (Fixtures.tree ~stages:2 ~fanout:2 ())
        .Circuits.Inverter_tree.circuit;
      (Fixtures.adder 2).Circuits.Ripple_adder.circuit
    ]
  in
  let sleeps =
    [ Mtcmos.Breakpoint_sim.Cmos;
      Mtcmos.Breakpoint_sim.Resistor 100.0;
      Mtcmos.Breakpoint_sim.Resistor 200.0;
      Mtcmos.Breakpoint_sim.Sleep_fet (Device.Sleep.nmos_footer tech ~wl:5.0);
      Mtcmos.Breakpoint_sim.Sleep_fet (Device.Sleep.nmos_footer tech ~wl:10.0)
    ]
  in
  let vectors = [ ([ (1, 0) ], [ (1, 1) ]); ([ (1, 1) ], [ (1, 0) ]) ] in
  let keys = Hashtbl.create 64 in
  let add what key =
    match Hashtbl.find_opt keys key with
    | Some other -> Alcotest.failf "collision: %s vs %s" what other
    | None -> Hashtbl.add keys key what
  in
  List.iteri
    (fun ci c ->
      List.iteri
        (fun si sleep ->
          List.iteri
            (fun vi (before, after) ->
              List.iter
                (fun body_effect ->
                  let config =
                    { Mtcmos.Breakpoint_sim.default_config with
                      Mtcmos.Breakpoint_sim.sleep; body_effect }
                  in
                  let what =
                    Printf.sprintf "c%d/s%d/v%d/be%b" ci si vi body_effect
                  in
                  add what
                    (Mtcmos.Cached.digest ~tag:"t"
                       [ Mtcmos.Cached.circuit_key c;
                         Mtcmos.Cached.bp_config_key config;
                         Mtcmos.Cached.vector_key ~before ~after ]))
                [ true; false ])
            vectors)
        sleeps)
    circuits;
  Alcotest.(check int)
    "corpus size" (5 * 5 * 2 * 2) (Hashtbl.length keys)

(* Every field of a breakpoint config, its partition included, reaches
   [bp_config_key]: varying any one field alone gives a key no other
   variant has.  The record patterns name every field, so a new field
   fails to compile here until it is varied below too. *)
let test_bp_config_key_fields () =
  let module BP = Mtcmos.Breakpoint_sim in
  let base = BP.default_config in
  let { BP.sleep = _; body_effect = _; partition = _; tech_override = _;
        rail = _ } =
    base
  in
  let footer wl = BP.Sleep_fet (Device.Sleep.nmos_footer tech ~wl) in
  let part =
    { BP.block_of_gate = [| 0; 1; 0 |]; sleeps = [| footer 5.0; footer 8.0 |] }
  in
  let { BP.block_of_gate = _; sleeps = _ } = part in
  let variants =
    [ ("default", base);
      ("sleep", { base with BP.sleep = BP.Resistor 100.0 });
      ("body_effect", { base with BP.body_effect = false });
      ("partition", { base with BP.partition = Some part });
      ( "partition.block_of_gate",
        { base with
          BP.partition =
            Some { part with BP.block_of_gate = [| 0; 1; 1 |] } } );
      ( "partition.sleeps",
        { base with
          BP.partition =
            Some { part with BP.sleeps = [| footer 5.0; footer 9.0 |] } } );
      ("tech_override", { base with BP.tech_override = Some Fixtures.tech03 });
      ("rail", { base with BP.rail = BP.Vdd_switch }) ]
  in
  let keys = Hashtbl.create 16 in
  List.iter
    (fun (what, cfg) ->
      let key = Mtcmos.Cached.bp_config_key cfg in
      match Hashtbl.find_opt keys key with
      | Some other -> Alcotest.failf "%s and %s share a key" what other
      | None -> Hashtbl.add keys key what)
    variants;
  Alcotest.(check int)
    "one key per variant" (List.length variants) (Hashtbl.length keys)

(* Every field of a transistor-level config, its Newton budget
   included, reaches [sp_config_key]: varying any one field alone gives
   a key no other variant has.  The record pattern names every field, so
   a new field fails to compile here until it is varied below too. *)
let test_sp_config_key_fields () =
  let module SR = Mtcmos.Spice_ref in
  let base = SR.default_config in
  let { SR.sleep = _; cx_extra = _; pmos_header = _; t_start = _;
        t_stop = _; dt = _; newton_budget = _; fast = _ } =
    base
  in
  let variants =
    [ ("default", base);
      ("sleep", { base with SR.sleep = Mtcmos.Breakpoint_sim.Resistor 100.0 });
      ("cx_extra", { base with SR.cx_extra = 1e-13 });
      ("pmos_header", { base with SR.pmos_header = true });
      ("t_start", { base with SR.t_start = 200e-12 });
      ("t_stop", { base with SR.t_stop = 8e-9 });
      ("dt", { base with SR.dt = Some 1e-12 });
      ("fast", { base with SR.fast = `Reduce_bypass });
      ("newton_budget", { base with SR.newton_budget = Some 4 }) ]
  in
  let keys = Hashtbl.create 16 in
  List.iter
    (fun (what, cfg) ->
      let key = Mtcmos.Cached.sp_config_key cfg in
      match Hashtbl.find_opt keys key with
      | Some other -> Alcotest.failf "%s and %s share a key" what other
      | None -> Hashtbl.add keys key what)
    variants;
  Alcotest.(check int)
    "one key per variant" (List.length variants) (Hashtbl.length keys)

(* ---- Cache: LRU bound, counters, memo ------------------------------------ *)

let entry fs = { C.floats = fs; stats = None }

let test_lru_eviction () =
  let c = C.create ~max_entries:3 () in
  C.store c "a" (entry [| 1.0 |]);
  C.store c "b" (entry [| 2.0 |]);
  C.store c "c" (entry [| 3.0 |]);
  (* touch "a" so "b" is now the least recently used *)
  Alcotest.(check bool) "a hits" true (C.find c "a" <> None);
  C.store c "d" (entry [| 4.0 |]);
  Alcotest.(check bool) "b evicted" true (C.find c "b" = None);
  Alcotest.(check bool) "a survives" true (C.find c "a" <> None);
  Alcotest.(check bool) "c survives" true (C.find c "c" <> None);
  Alcotest.(check bool) "d present" true (C.find c "d" <> None);
  let k = C.counters c in
  Alcotest.(check int) "entries bounded" 3 k.C.entries;
  Alcotest.(check int) "one eviction" 1 k.C.evictions;
  Alcotest.(check int) "hits" 4 k.C.hits;
  Alcotest.(check int) "misses" 1 k.C.misses;
  Alcotest.(check bool) "bytes positive" true (k.C.bytes > 0)

let test_store_replaces () =
  let c = C.create ~max_entries:2 () in
  C.store c "k" (entry [| 1.0 |]);
  C.store c "k" (entry [| 2.0 |]);
  (match C.find c "k" with
   | Some e -> Alcotest.(check (float 0.0)) "replaced" 2.0 e.C.floats.(0)
   | None -> Alcotest.fail "entry vanished");
  Alcotest.(check int) "no eviction on replace" 0 (C.counters c).C.evictions;
  Alcotest.(check int) "one entry" 1 (C.counters c).C.entries

let test_memo_protocol () =
  let c = C.create () in
  let runs = ref 0 in
  let compute _stats =
    incr runs;
    (3.5, 7.25)
  in
  let call () =
    C.memo ~cache:c
      ~key:(lazy "memo-test")
      ~arity:2
      ~to_floats:(fun (a, b) -> [| a; b |])
      ~of_floats:(fun fs -> (fs.(0), fs.(1)))
      compute
  in
  let cold = call () in
  let warm = call () in
  Alcotest.(check int) "computed once" 1 !runs;
  Alcotest.(check (pair (float 0.0) (float 0.0))) "hit = miss" cold warm;
  (* an arity mismatch (stale file) is a miss, recomputed and replaced *)
  C.store c "memo-test" (entry [| 9.9 |]);
  let again = call () in
  Alcotest.(check int) "recomputed on arity mismatch" 2 !runs;
  Alcotest.(check (pair (float 0.0) (float 0.0))) "value restored" cold again

let test_memo_replays_stats () =
  let c = C.create () in
  let telemetry =
    { Spice.Diag.newton_iterations = 12;
      factorizations = 4;
      step_rejections = 0;
      gmin_rounds = 0;
      recoveries = [];
      wall_s = 0.1 }
  in
  let failure =
    { Spice.Diag.analysis = Spice.Diag.Transient;
      kind = Spice.Diag.Newton_divergence;
      time = 1e-9;
      last_good_time = 0.5e-9;
      worst_residual_node = None;
      worst_residual = 0.1;
      newton_iterations = 40;
      recovery_attempts = [ "gmin-ramp" ];
      message = "test failure" }
  in
  let compute stats =
    (match stats with
     | Some s ->
       Eval.Resilience.record_success ~stats:s telemetry;
       Eval.Resilience.record_skip ~stats:s
         ~kind:Eval.Resilience.Estimated ~label:"vec0" failure
     | None -> ());
    42.0
  in
  let call () =
    let stats = Eval.Resilience.create () in
    let v =
      C.memo ~cache:c ~stats
        ~key:(lazy "stats-test")
        ~arity:1
        ~to_floats:(fun x -> [| x |])
        ~of_floats:(fun fs -> fs.(0))
        compute
    in
    (v, stats)
  in
  let v1, s1 = call () in
  let v2, s2 = call () in
  Alcotest.(check (float 0.0)) "same value" v1 v2;
  Alcotest.(check int) "hit counted" 1 (C.counters c).C.hits;
  List.iter
    (fun (what, f) ->
      Alcotest.(check int) (what ^ " replayed") (f s1) (f s2))
    [ ("attempted", fun s -> s.Eval.Resilience.attempted);
      ("direct", fun s -> s.Eval.Resilience.direct);
      ("skipped", fun s -> s.Eval.Resilience.skipped);
      ("fallback", fun s -> s.Eval.Resilience.fallback) ];
  Alcotest.(check (list (pair string bool)))
    "skip labels replayed"
    (List.map
       (fun (l, k, _) -> (l, k = Eval.Resilience.Estimated))
       s1.Eval.Resilience.skips)
    (List.map
       (fun (l, k, _) -> (l, k = Eval.Resilience.Estimated))
       s2.Eval.Resilience.skips)

(* ---- save / load ---------------------------------------------------------- *)

let test_save_load_round_trip () =
  let file = Filename.temp_file "mtsize-cache" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let c = C.create ~max_entries:8 () in
      let weird = [| Float.nan; -0.0; 1e-300; Float.max_float; 0.5 |] in
      C.store c "plain" (entry [| 1.0; 2.0 |]);
      C.store c "weird" (entry weird);
      C.store c "empty-key-\x00-binary" (entry [| 3.0 |]);
      C.save c file;
      let c' = C.load file in
      Alcotest.(check int) "entries survive" 3 (C.counters c').C.entries;
      Alcotest.(check int) "counters reset" 0 (C.counters c').C.hits;
      (match C.find c' "weird" with
       | None -> Alcotest.fail "weird entry lost"
       | Some e ->
         Alcotest.(check int) "arity" 5 (Array.length e.C.floats);
         Array.iteri
           (fun i f ->
             check_float_bits (Printf.sprintf "float %d bits" i) weird.(i) f)
           e.C.floats);
      (match C.find c' "plain" with
       | Some e ->
         Alcotest.(check (float 0.0)) "plain value" 2.0 e.C.floats.(1)
       | None -> Alcotest.fail "plain entry lost"))

let test_save_load_preserves_recency () =
  let file = Filename.temp_file "mtsize-cache" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let c = C.create ~max_entries:4 () in
      C.store c "old" (entry [| 1.0 |]);
      C.store c "mid" (entry [| 2.0 |]);
      C.store c "new" (entry [| 3.0 |]);
      ignore (C.find c "old");
      (* recency now: mid < new < old *)
      C.save c file;
      (* reload into a table that only holds two entries: the LRU entry
         ("mid") must be the one that falls off *)
      let c' = C.load ~max_entries:2 file in
      Alcotest.(check bool) "LRU dropped on shrink" true (C.find c' "mid" = None);
      Alcotest.(check bool) "MRU kept" true (C.find c' "old" <> None);
      Alcotest.(check bool) "2nd MRU kept" true (C.find c' "new" <> None))

(* ---- Cache: lock-striped shards ------------------------------------------ *)

(* a deterministic op sequence (digest-like keys) replayed at several
   stripe counts: the values and the merged counters must not move *)
let shard_workload c =
  let keys =
    List.init 64 (fun i -> Digest.string (Printf.sprintf "shard-key-%d" i))
  in
  List.iteri (fun i k -> C.store c k (entry [| float_of_int i |])) keys;
  (* second pass: every lookup hits, wherever the stripe put it *)
  List.iteri
    (fun i k ->
      match C.find c k with
      | Some e ->
        Alcotest.(check (float 0.0))
          (Printf.sprintf "value %d" i)
          (float_of_int i) e.C.floats.(0)
      | None -> Alcotest.failf "key %d lost by sharding" i)
    keys;
  ignore (C.find c "never-stored");
  C.counters c

let test_shard_count_invariance () =
  let reference = shard_workload (C.create ()) in
  List.iter
    (fun n ->
      let c = C.create ~shards:n () in
      let k = shard_workload c in
      Alcotest.(check int)
        (Printf.sprintf "hits at %d shards" n)
        reference.C.hits k.C.hits;
      Alcotest.(check int)
        (Printf.sprintf "misses at %d shards" n)
        reference.C.misses k.C.misses;
      Alcotest.(check int)
        (Printf.sprintf "evictions at %d shards" n)
        reference.C.evictions k.C.evictions;
      Alcotest.(check int)
        (Printf.sprintf "entries at %d shards" n)
        reference.C.entries k.C.entries;
      Alcotest.(check int)
        (Printf.sprintf "bytes at %d shards" n)
        reference.C.bytes k.C.bytes)
    [ 2; 4; 16; 256 ]

let test_shard_save_load_cross_count () =
  let file = Filename.temp_file "mtsize-cache" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let c = C.create ~shards:16 () in
      ignore (shard_workload c);
      C.save c file;
      (* reload at a different stripe count: entries re-route by digest *)
      let c' = C.load ~shards:4 file in
      Alcotest.(check int) "population survives re-striping"
        (C.counters c).C.entries (C.counters c').C.entries;
      List.iteri
        (fun i k ->
          match C.find c' k with
          | Some e ->
            Alcotest.(check (float 0.0))
              (Printf.sprintf "re-striped value %d" i)
              (float_of_int i) e.C.floats.(0)
          | None -> Alcotest.failf "key %d lost by re-striping" i)
        (List.init 64 (fun i -> Digest.string (Printf.sprintf "shard-key-%d" i))))

let test_shard_concurrent_domains shards () =
  (* 8 domains hammer one cache; every hit must return exactly the
     floats stored for its own key, never another key's or a torn
     value *)
  let c = C.create ~shards () in
  let n = 256 and clients = 8 in
  let key i = Digest.string (Printf.sprintf "conc-%d" (i mod 64)) in
  let worker _ =
    for i = 0 to n - 1 do
      let k = key i in
      (match C.find c k with
       | Some e ->
         if e.C.floats <> [| float_of_int (i mod 64) |] then
           Alcotest.failf "key %d read foreign floats" (i mod 64)
       | None -> ());
      C.store c k (entry [| float_of_int (i mod 64) |])
    done;
    true
  in
  let domains =
    List.init clients (fun d -> Domain.spawn (fun () -> worker d))
  in
  List.iter (fun d -> ignore (Domain.join d)) domains;
  (* afterwards every key holds its (unique) final value *)
  for i = 0 to 63 do
    match C.find c (key i) with
    | Some e ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "final value %d" i)
        (float_of_int i) e.C.floats.(0)
    | None -> Alcotest.failf "key %d missing after concurrent run" i
  done;
  let k = C.counters c in
  Alcotest.(check int) "population is the key set" 64 k.C.entries;
  Alcotest.(check int)
    "every lookup counted" ((clients * n) + 64)
    (k.C.hits + k.C.misses)

let test_shard_bad_args () =
  (match C.create ~shards:0 () with
   | _ -> Alcotest.fail "shards=0 accepted"
   | exception Invalid_argument _ -> ());
  match C.create ~shards:257 () with
  | _ -> Alcotest.fail "shards=257 accepted"
  | exception Invalid_argument _ -> ()

let test_load_rejects_garbage () =
  let file = Filename.temp_file "mtsize-cache" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc "not a cache file\n";
      close_out oc;
      match C.load file with
      | _ -> Alcotest.fail "garbage accepted"
      | exception Failure _ -> ())

(* ---- Ctx ------------------------------------------------------------------ *)

let test_ctx_builders () =
  let d = E.Ctx.default in
  Alcotest.(check bool) "default engine" true (d.E.Ctx.engine = E.Breakpoint);
  Alcotest.(check bool) "default body effect" true d.E.Ctx.body_effect;
  Alcotest.(check int) "default jobs" 1 d.E.Ctx.jobs;
  Alcotest.(check bool) "no cache" true (d.E.Ctx.cache = None);
  Alcotest.(check bool) "no stats" true (d.E.Ctx.stats = None);
  let c = C.create () in
  let t =
    d
    |> E.Ctx.with_engine E.Spice_level
    |> E.Ctx.with_jobs 4
    |> E.Ctx.with_cache c
  in
  Alcotest.(check bool) "engine set" true (t.E.Ctx.engine = E.Spice_level);
  Alcotest.(check int) "jobs set" 4 t.E.Ctx.jobs;
  Alcotest.(check bool) "cache set" true (t.E.Ctx.cache <> None);
  let t' = E.Ctx.override ~jobs:2 t in
  Alcotest.(check int) "override picks new" 2 t'.E.Ctx.jobs;
  Alcotest.(check bool)
    "override keeps others" true
    (t'.E.Ctx.engine = E.Spice_level && t'.E.Ctx.cache <> None);
  Alcotest.(check bool)
    "without_cache" true
    ((E.Ctx.without_cache t).E.Ctx.cache = None)

let test_engine_names () =
  Alcotest.(check string) "bp" "bp" (E.Engine.to_string E.Breakpoint);
  Alcotest.(check string) "spice" "spice" (E.Engine.to_string E.Spice_level);
  List.iter
    (fun (s, e) ->
      match E.Engine.of_string s with
      | Ok e' -> Alcotest.(check bool) s true (e = e')
      | Error m -> Alcotest.fail m)
    [ ("bp", E.Breakpoint); ("breakpoint", E.Breakpoint);
      ("SPICE", E.Spice_level) ];
  Alcotest.(check bool)
    "bogus rejected" true
    (Result.is_error (E.Engine.of_string "bogus"))

(* ---- caching is invisible ------------------------------------------------- *)

let chain n = (Fixtures.chain n).Circuits.Chain.circuit

let resilience_totals (s : Eval.Resilience.t) =
  ( s.Eval.Resilience.attempted,
    s.Eval.Resilience.direct,
    s.Eval.Resilience.recovered,
    s.Eval.Resilience.skipped,
    s.Eval.Resilience.fallback,
    s.Eval.Resilience.scored_zero,
    s.Eval.Resilience.strategies,
    List.map (fun (l, n, _) -> (l, n)) s.Eval.Resilience.skips )

(* a spice sweep under a strangled Newton budget exercises recovery and
   fallback paths; cold, warm, and cache-off runs must agree on both the
   measurements and the resilience totals *)
let test_spice_sweep_cold_warm_off () =
  let c = chain 4 in
  let vec = ([ (1, 0) ], [ (1, 1) ]) in
  let wls = [ 2.0; 10.0 ] in
  let run ctx =
    let stats = Eval.Resilience.create () in
    let ctx = E.Ctx.with_stats stats ctx in
    let ms = Mtcmos.Sizing.sweep ~ctx c ~vectors:[ vec ] ~wls in
    (ms, resilience_totals stats)
  in
  let base =
    E.Ctx.default
    |> E.Ctx.with_engine E.Spice_level
    |> E.Ctx.with_newton_budget (Some 4)
  in
  let cache = C.create () in
  let off = run base in
  let cold = run (E.Ctx.with_cache cache base) in
  let warm = run (E.Ctx.with_cache cache base) in
  Alcotest.(check bool) "warm run hit" true ((C.counters cache).C.hits > 0);
  Alcotest.(check bool) "cold = off" true (compare cold off = 0);
  Alcotest.(check bool) "warm = cold" true (compare warm cold = 0);
  (* and the engine really did have to recover under this budget,
     otherwise the replay equality above is vacuous *)
  let _, (attempted, direct, _, _, _, _, _, _) = (fst off, snd off) in
  Alcotest.(check bool) "budget bit" true (attempted > 0 && direct < attempted)

(* hill_climb threads the cache through Par.Pool workers: the winning
   vector must not depend on cache or jobs *)
let test_search_cache_and_jobs_invariant () =
  let c = (Fixtures.adder 2).Circuits.Ripple_adder.circuit in
  let sleep =
    Mtcmos.Breakpoint_sim.Sleep_fet (Device.Sleep.nmos_footer tech ~wl:8.0)
  in
  let run ctx =
    Mtcmos.Search.hill_climb ~ctx ~restarts:3 ~seed:7 c ~sleep
      ~widths:[ 2; 2 ] Mtcmos.Search.Max_degradation
  in
  let reference = run E.Ctx.default in
  List.iter
    (fun jobs ->
      let cache = C.create () in
      let ctx = E.Ctx.default |> E.Ctx.with_jobs jobs |> E.Ctx.with_cache cache in
      let o = run ctx in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d cached = reference" jobs)
        true
        (o.Mtcmos.Search.pair = reference.Mtcmos.Search.pair
        && o.Mtcmos.Search.score = reference.Mtcmos.Search.score);
      (* same ctx again: warm, and still identical *)
      let o' = run ctx in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d warm = reference" jobs)
        true
        (o'.Mtcmos.Search.pair = reference.Mtcmos.Search.pair
        && o'.Mtcmos.Search.score = reference.Mtcmos.Search.score))
    [ 1; 2; 3 ]

(* QCheck: for random vector sets / sizes / jobs, a bp sweep with the
   cache (including a warm second pass) equals the uncached sweep
   bit-for-bit *)
let prop_cache_invisible =
  QCheck.Test.make ~count:30 ~name:"eval: cache-on = cache-off (bp sweep)"
    QCheck.(triple (int_bound 1000) (int_range 1 3) (int_range 1 4))
    (fun (seed, jobs, nvec) ->
      let c = (Fixtures.adder 2).Circuits.Ripple_adder.circuit in
      let st = Random.State.make [| 3571; seed |] in
      let vec () =
        let draw () = [ (2, Random.State.int st 4); (2, Random.State.int st 4) ] in
        (draw (), draw ())
      in
      let vectors = List.init nvec (fun _ -> vec ()) in
      let wls = [ 2.0 +. float_of_int (Random.State.int st 8); 20.0 ] in
      let run ctx = Mtcmos.Sizing.sweep ~ctx c ~vectors ~wls in
      let off = run (E.Ctx.with_jobs jobs E.Ctx.default) in
      let cache = C.create () in
      let ctx = E.Ctx.default |> E.Ctx.with_jobs jobs |> E.Ctx.with_cache cache in
      let cold = run ctx in
      let warm = run ctx in
      (* compare instead of (=): a no-transition vector can leave NaN in
         a measurement, and NaN <> NaN under (=) even when bit-identical *)
      compare cold off = 0 && compare warm off = 0)

let suite =
  [ Alcotest.test_case "key framing is unambiguous" `Quick test_key_framing;
    Alcotest.test_case "key floats are exact" `Quick test_key_float_exact;
    Alcotest.test_case "digest corpus has no collisions" `Quick
      test_digest_corpus_distinct;
    Alcotest.test_case "spice key covers every config field" `Quick
      test_sp_config_key_fields;
    Alcotest.test_case "breakpoint key covers every config field" `Quick
      test_bp_config_key_fields;
    Alcotest.test_case "LRU eviction and counters" `Quick test_lru_eviction;
    Alcotest.test_case "store replaces in place" `Quick test_store_replaces;
    Alcotest.test_case "memo: hit = miss, arity guards" `Quick
      test_memo_protocol;
    Alcotest.test_case "memo replays resilience deltas" `Quick
      test_memo_replays_stats;
    Alcotest.test_case "save/load round-trips exact floats" `Quick
      test_save_load_round_trip;
    Alcotest.test_case "save/load preserves recency" `Quick
      test_save_load_preserves_recency;
    Alcotest.test_case "load rejects garbage" `Quick test_load_rejects_garbage;
    Alcotest.test_case "shard counters are stripe-count-invariant" `Quick
      test_shard_count_invariance;
    Alcotest.test_case "save/load re-stripes across shard counts" `Quick
      test_shard_save_load_cross_count;
    Alcotest.test_case "sharded cache survives concurrent domains" `Quick
      (test_shard_concurrent_domains 16);
    Alcotest.test_case "single-lock cache survives concurrent domains" `Quick
      (test_shard_concurrent_domains 1);
    Alcotest.test_case "shard bounds rejected" `Quick test_shard_bad_args;
    Alcotest.test_case "ctx builders and override" `Quick test_ctx_builders;
    Alcotest.test_case "engine names" `Quick test_engine_names;
    Alcotest.test_case "spice sweep: cold = warm = cache-off" `Slow
      test_spice_sweep_cold_warm_off;
    Alcotest.test_case "search invariant under cache and jobs" `Slow
      test_search_cache_and_jobs_invariant;
    Prop.to_alcotest prop_cache_invisible;
    Prop.to_alcotest prop_key_float_is_printf;
    Prop.to_alcotest prop_key_int_is_string_of_int ]
