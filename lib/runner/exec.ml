(* The batch scheduler: runs a Spec's jobs in file order through ONE
   shared evaluation context — a single cache (so later jobs hit what
   earlier jobs computed), a single Obs registry/trace, one Par pool
   budget — journaling each completed job's manifest fragment so an
   interrupted run resumes bit-identically, and isolating per-job
   failures: an exception inside a job becomes a "failed" manifest
   entry, a job whose solver skipped work after its recovery ladder
   becomes "degraded", and the batch keeps going either way.

   The manifest deliberately contains no wall times, worker counts, or
   cache statistics: every field is a pure function of the spec, so the
   file is suitable for golden-snapshot comparison and is identical
   whatever --jobs is and whatever the cache held. *)

module C = Catalog

type status = Clean | Degraded | Failed

let status_string = function
  | Clean -> "ok"
  | Degraded -> "degraded"
  | Failed -> "failed"

type outcome = {
  manifest : string;
  total : int;
  executed : int;   (* jobs run in this invocation *)
  replayed : int;   (* jobs served from the journal *)
  ok : int;
  degraded : int;
  failed : int;
  interrupted : bool;  (* stopped by ?stop_after before finishing *)
}

(* ---- JSON encodings ---------------------------------------------- *)

let measurement_json (m : Mtcmos.Sizing.measurement) =
  Json.Obj
    [ ("wl", Json.Float m.Mtcmos.Sizing.wl);
      ("cmos_delay", Json.Float m.Mtcmos.Sizing.cmos_delay);
      ("mtcmos_delay", Json.Float m.Mtcmos.Sizing.mtcmos_delay);
      ("degradation", Json.Float m.Mtcmos.Sizing.degradation);
      ("vx_peak", Json.Float m.Mtcmos.Sizing.vx_peak) ]

let ranking_json (r : Mtcmos.Vectors.ranking) =
  Json.Obj
    [ ("vector", Json.Str (C.vector_string r.Mtcmos.Vectors.pair));
      ("delay", Json.Float r.Mtcmos.Vectors.delay);
      ("cmos_delay", Json.Float r.Mtcmos.Vectors.cmos_delay);
      ("degradation", Json.Float r.Mtcmos.Vectors.degradation);
      ("vx_peak", Json.Float r.Mtcmos.Vectors.vx_peak) ]

let point_json (p : Mtcmos.Characterize.point) =
  Json.Obj
    [ ("cl", Json.Float p.Mtcmos.Characterize.cl);
      ("ramp", Json.Float p.Mtcmos.Characterize.ramp);
      ("fall_delay", Json.Float p.Mtcmos.Characterize.fall_delay);
      ("rise_delay", Json.Float p.Mtcmos.Characterize.rise_delay);
      ("fall_slew", Json.Float p.Mtcmos.Characterize.fall_slew);
      ("rise_slew", Json.Float p.Mtcmos.Characterize.rise_slew) ]

let summary_json (s : Phys.Stats.summary) =
  Json.Obj
    [ ("n", Json.Int s.Phys.Stats.n);
      ("mean", Json.Float s.Phys.Stats.mean);
      ("stddev", Json.Float s.Phys.Stats.stddev);
      ("min", Json.Float s.Phys.Stats.min);
      ("max", Json.Float s.Phys.Stats.max);
      ("median", Json.Float s.Phys.Stats.median) ]

let resilience_json (s : Eval.Resilience.t) =
  if s.Eval.Resilience.attempted = 0 then []
  else
    [ ( "resilience",
        Json.Obj
          [ ("attempted", Json.Int s.Eval.Resilience.attempted);
            ("direct", Json.Int s.Eval.Resilience.direct);
            ("recovered", Json.Int s.Eval.Resilience.recovered);
            ("skipped", Json.Int s.Eval.Resilience.skipped);
            ("fallback", Json.Int s.Eval.Resilience.fallback);
            ("scored_zero", Json.Int s.Eval.Resilience.scored_zero) ] ) ]

(* ---- per-job execution ------------------------------------------- *)

type answer =
  | Sweep_answer of Mtcmos.Sizing.measurement list
  | Size_answer of {
      target : float;
      wl : float;
      measurement : Mtcmos.Sizing.measurement;
    }
  | Worst_answer of {
      wl : float;
      pairs_examined : int;
      ranked : Mtcmos.Vectors.ranking list;
    }
  | Search_answer of {
      wl : float;
      objective : Mtcmos.Search.objective;
      outcome : Mtcmos.Search.outcome;
    }
  | Characterize_answer of {
      gate : Netlist.Gate.kind;
      points : Mtcmos.Characterize.point list;
    }
  | Monte_carlo_answer of { wl : float; n : int; stats : Mtcmos.Variation.stats }
  | Select_answer of { delay_budget : float; result : Mtcmos.Selective.result }

let sleep_of tech ~wl =
  Mtcmos.Breakpoint_sim.Sleep_fet (Device.Sleep.nmos_footer tech ~wl)

let vectors_or_fail ~widths strs =
  match C.parse_vectors ~widths strs with
  | Ok v -> v
  | Error e -> failwith e

(* the job body; raises on any per-job error *)
let answer ctx tech (bc : C.bench_circuit option) (job : Spec.job) =
  let circuit () =
    match bc with
    | Some bc -> bc
    | None -> failwith "job has no circuit" (* parse-time guaranteed *)
  in
  match job.Spec.kind with
  | Spec.Sweep { wls; vectors } ->
    let bc = circuit () in
    let vecs = vectors_or_fail ~widths:bc.C.widths vectors in
    Sweep_answer (Mtcmos.Sizing.sweep ~ctx bc.C.circuit ~vectors:vecs ~wls)
  | Spec.Size { target; vectors } ->
    let bc = circuit () in
    let vecs = vectors_or_fail ~widths:bc.C.widths vectors in
    (match
       Mtcmos.Sizing.size_for_degradation ~ctx bc.C.circuit ~vectors:vecs
         ~target
     with
     | wl ->
       let measurement =
         Mtcmos.Sizing.delay_at ~ctx bc.C.circuit ~vectors:vecs ~wl
       in
       Size_answer { target; wl; measurement }
     | exception Not_found -> failwith "no feasible size in [0.5, 4096]")
  | Spec.Worst_vectors { wl; top; sample } ->
    let bc = circuit () in
    let total_bits = List.fold_left ( + ) 0 bc.C.widths in
    let pairs =
      if 2 * total_bits <= 14 then
        Mtcmos.Vectors.enumerate_pairs ~widths:bc.C.widths
      else Mtcmos.Vectors.random_pairs ~widths:bc.C.widths sample
    in
    let ranked =
      Mtcmos.Vectors.worst ~ctx bc.C.circuit ~sleep:(sleep_of tech ~wl)
        ~pairs ~top
    in
    Worst_answer { wl; pairs_examined = List.length pairs; ranked }
  | Spec.Search { wl; objective; restarts; seed; max_iters } ->
    let bc = circuit () in
    let outcome =
      Mtcmos.Search.hill_climb ~seed ~restarts ~max_iters ~ctx bc.C.circuit
        ~sleep:(sleep_of tech ~wl) ~widths:bc.C.widths objective
    in
    Search_answer { wl; objective; outcome }
  | Spec.Characterize { gate; loads; ramps } ->
    let points = Mtcmos.Characterize.gate ~ctx ?loads ?ramps tech gate in
    Characterize_answer { gate; points }
  | Spec.Monte_carlo { wl; n; seed; vector } ->
    let bc = circuit () in
    let vec =
      match vector with
      | None -> List.hd (C.default_vectors bc.C.widths)
      | Some s ->
        (match C.parse_vector bc.C.widths s with
         | Ok v -> v
         | Error e -> failwith e)
    in
    let stats =
      Mtcmos.Variation.monte_carlo ~ctx ~seed ~n bc.C.circuit ~wl ~vector:vec
    in
    Monte_carlo_answer { wl; n; stats }
  | Spec.Select { delay_budget; clusters; objective; passes } ->
    let bc = circuit () in
    (match
       Mtcmos.Selective.optimize ~ctx ~objective ~clusters
         ~max_passes:passes bc.C.circuit ~delay_budget
     with
     | result -> Select_answer { delay_budget; result }
     | exception Not_found ->
       failwith "delay budget infeasible even all-low-Vt at W/L 4096")

let answer_json = function
  | Sweep_answer ms ->
    Json.Obj [ ("measurements", Json.Arr (List.map measurement_json ms)) ]
  | Size_answer { target; wl; measurement } ->
    Json.Obj
      [ ("target", Json.Float target);
        ("wl", Json.Float wl);
        ("measurement", measurement_json measurement) ]
  | Worst_answer { wl; pairs_examined; ranked } ->
    Json.Obj
      [ ("wl", Json.Float wl);
        ("pairs_examined", Json.Int pairs_examined);
        ("ranked", Json.Arr (List.map ranking_json ranked)) ]
  | Search_answer { wl; objective; outcome = o } ->
    Json.Obj
      [ ("wl", Json.Float wl);
        ("objective", Json.Str (C.objective_name objective));
        ("worst", Json.Str (C.vector_string o.Mtcmos.Search.pair));
        ("score", Json.Float o.Mtcmos.Search.score);
        ("evaluations", Json.Int o.Mtcmos.Search.evaluations) ]
  | Characterize_answer { gate; points } ->
    Json.Obj
      [ ("gate", Json.Str (Netlist.Gate.name gate));
        ("points", Json.Arr (List.map point_json points)) ]
  | Monte_carlo_answer { wl; n; stats = st } ->
    Json.Obj
      [ ("wl", Json.Float wl);
        ("n", Json.Int n);
        ("delay", summary_json st.Mtcmos.Variation.delay_summary);
        ("vx", summary_json st.Mtcmos.Variation.vx_summary);
        ( "degradation_p95",
          Json.Float st.Mtcmos.Variation.degradation_p95 ) ]
  | Select_answer { delay_budget; result = r } ->
    let low =
      Array.fold_left
        (fun a h -> if h then a else a + 1)
        0 r.Mtcmos.Selective.vt_high
    in
    let cluster_json c wl =
      let m = r.Mtcmos.Selective.members.(c) in
      let lowc =
        Array.fold_left
          (fun a g -> if r.Mtcmos.Selective.vt_high.(g) then a else a + 1)
          0 m
      in
      Json.Obj
        [ ("wl", Json.Float wl);
          ("gates", Json.Int (Array.length m));
          ("low_vt", Json.Int lowc) ]
    in
    Json.Obj
      [ ("delay_budget", Json.Float delay_budget);
        ( "objective",
          Json.Str
            (Mtcmos.Selective.objective_name r.Mtcmos.Selective.objective) );
        ("base_delay", Json.Float r.Mtcmos.Selective.base_delay);
        ("budget", Json.Float r.Mtcmos.Selective.budget);
        ("arrival", Json.Float r.Mtcmos.Selective.arrival);
        ("slack", Json.Float r.Mtcmos.Selective.slack);
        ("low_vt", Json.Int low);
        ("high_vt", Json.Int (Array.length r.Mtcmos.Selective.vt_high - low));
        ( "clusters",
          Json.Arr
            (Array.to_list (Array.mapi cluster_json r.Mtcmos.Selective.sleep_wl))
        );
        ("leakage", Json.Float r.Mtcmos.Selective.leakage);
        ("ungated_leakage", Json.Float r.Mtcmos.Selective.ungated_leakage);
        ("area", Json.Float r.Mtcmos.Selective.area);
        ("objective_value", Json.Float r.Mtcmos.Selective.objective_value);
        ("evaluations", Json.Int r.Mtcmos.Selective.evaluations);
        ("flips_to_low", Json.Int r.Mtcmos.Selective.flips_to_low);
        ("reclaimed", Json.Int r.Mtcmos.Selective.reclaimed);
        ("moves", Json.Int r.Mtcmos.Selective.moves) ]

let error_message = function
  | Failure m -> m
  | Invalid_argument m -> "invalid argument: " ^ m
  | e -> Printexc.to_string e

let with_overrides (ov : Spec.overrides) ctx =
  let ctx = Eval.Ctx.override ?engine:ov.Spec.engine ?jobs:ov.Spec.jobs ctx in
  match ov.Spec.newton_budget with
  | Some n when n > 0 -> Eval.Ctx.with_newton_budget (Some n) ctx
  | _ -> ctx

(* effective per-job context: job override > spec defaults > base ctx *)
let job_ctx base (defaults : Spec.overrides) (job : Spec.job) =
  let pick f = Option.fold ~none:(f defaults) ~some:Option.some (f job.Spec.overrides) in
  with_overrides
    { Spec.engine = pick (fun o -> o.Spec.engine);
      jobs = pick (fun o -> o.Spec.jobs);
      newton_budget = pick (fun o -> o.Spec.newton_budget) }
    base

let exec_job_with ~defaults ctx tech bc job =
  let jctx, stats = Eval.Ctx.for_job (job_ctx ctx defaults job) in
  match answer jctx tech bc job with
  | a -> (Ok a, stats)
  | exception e -> (Error (error_message e), stats)

let exec_job ctx tech bc job =
  exec_job_with ~defaults:Spec.no_overrides ctx tech bc job

(* ---- the run loop ------------------------------------------------ *)

let ( let* ) = Result.bind

let run ?(ctx = Eval.Ctx.default) ?journal ?(fresh = false) ?stop_after
    ?deadline ?on_fragment (spec : Spec.t) =
  let* tech = C.tech_of_name spec.Spec.tech in
  (* resolve every named circuit up front; a bad declaration is a
     spec-level error, not a per-job one *)
  let* circuits =
    List.fold_left
      (fun acc (id, cspec) ->
        let* acc = acc in
        match C.circuit_of_name tech cspec with
        | Ok bc -> Ok ((id, bc) :: acc)
        | Error e -> Error (Printf.sprintf "circuit %s: %s" id e))
      (Ok []) spec.Spec.circuits
  in
  let fp = Spec.fingerprint spec in
  let* prior =
    match journal with
    | None -> Ok []
    | Some path when (not fresh) && Sys.file_exists path ->
      Journal.load ~path ~fingerprint:fp
    | Some path ->
      Journal.start ~path ~fingerprint:fp;
      Ok []
  in
  let obs = ctx.Eval.Ctx.obs in
  let total = List.length spec.Spec.jobs in
  Obs.set_count obs "runner.jobs.total" total;
  let fragments = ref [] in
  let executed = ref 0
  and replayed = ref 0
  and ok = ref 0
  and degraded = ref 0
  and failed = ref 0
  and interrupted = ref false in
  let bump_status status =
    match status with
    | Clean -> incr ok
    | Degraded -> incr degraded
    | Failed -> incr failed
  in
  (* Replayed fragments are opaque bytes (never re-parsed, to keep the
     resumed manifest byte-identical); their status is recovered by
     probing for the exact field bytes the writer emits. *)
  let contains hay probe =
    let np = String.length probe and nh = String.length hay in
    let rec find i =
      i + np <= nh && (String.sub hay i np = probe || find (i + 1))
    in
    find 0
  in
  let status_of_fragment frag =
    if contains frag "\"status\":\"failed\"" then Failed
    else if contains frag "\"status\":\"degraded\"" then Degraded
    else Clean
  in
  (* streaming hook: every fragment that enters the manifest — replayed
     or freshly executed — is announced in manifest order, after it has
     been journaled (so a consumer never sees a fragment the journal
     could lose) *)
  let emit ~id ~status frag =
    fragments := frag :: !fragments;
    match on_fragment with
    | Some f -> f ~id ~status frag
    | None -> ()
  in
  (try
     List.iter
       (fun (job : Spec.job) ->
         match List.assoc_opt job.Spec.id prior with
         | Some frag ->
           incr replayed;
           Obs.incr obs "runner.jobs.replayed";
           let status = status_of_fragment frag in
           bump_status status;
           emit ~id:job.Spec.id ~status frag
         | None ->
           (match stop_after with
            | Some k when !executed >= k ->
              interrupted := true;
              raise Exit
            | _ -> ());
           (* the deadline is observed only at job boundaries: a job in
              flight always completes and is journaled, so a batch it
              stops is indistinguishable from one interrupted by a
              crash — resume replays it *)
           (match deadline with
            | Some d when Unix.gettimeofday () > d ->
              interrupted := true;
              raise Exit
            | _ -> ());
           let bc =
             Option.bind job.Spec.circuit (fun id ->
                 List.assoc_opt id circuits)
           in
           let result, stats =
             Obs.Span.with_ obs "runner.job" (fun () ->
                 exec_job_with ~defaults:spec.Spec.defaults ctx tech bc job)
           in
           let status, tail =
             match result with
             | Ok a ->
               let s =
                 if stats.Eval.Resilience.skipped > 0 then Degraded
                 else Clean
               in
               (s, [ ("result", answer_json a) ] @ resilience_json stats)
             | Error msg -> (Failed, [ ("error", Json.Str msg) ])
           in
           let frag =
             Json.to_string
               (Json.Obj
                  ([ ("id", Json.Str job.Spec.id);
                     ("kind", Json.Str (Spec.kind_name job.Spec.kind)) ]
                   @ (match job.Spec.circuit with
                      | None -> []
                      | Some c -> [ ("circuit", Json.Str c) ])
                   @ [ ("status", Json.Str (status_string status)) ]
                   @ tail))
           in
           incr executed;
           Obs.incr obs "runner.jobs.executed";
           (match status with
            | Failed -> Obs.incr obs "runner.jobs.failed"
            | Degraded -> Obs.incr obs "runner.jobs.degraded"
            | Clean -> ());
           bump_status status;
           (match journal with
            | None -> ()
            | Some path -> Journal.append ~path ~id:job.Spec.id ~json:frag);
           emit ~id:job.Spec.id ~status frag)
       spec.Spec.jobs
   with Exit -> ());
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"manifest\":\"mtsize-runner\",\"version\":1,\"spec\":%s,\
        \"tech\":%s,\"complete\":%b,\"jobs\":["
       (Json.to_string (Json.Str fp))
       (Json.to_string (Json.Str spec.Spec.tech))
       (not !interrupted));
  List.iteri
    (fun i frag ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '\n';
      Buffer.add_string b frag)
    (List.rev !fragments);
  Buffer.add_string b
    (Printf.sprintf
       "\n],\"summary\":{\"total\":%d,\"ok\":%d,\"degraded\":%d,\
        \"failed\":%d}}\n"
       total !ok !degraded !failed);
  Ok
    { manifest = Buffer.contents b;
      total;
      executed = !executed;
      replayed = !replayed;
      ok = !ok;
      degraded = !degraded;
      failed = !failed;
      interrupted = !interrupted }
