(* Summary-table rendering.  Everything is keyed off the metric names
   the instrumentation sites use (see DESIGN.md "Observability" for the
   taxonomy); a section prints only when at least one of its metrics
   exists, so a bp-only run shows no SPICE table and vice versa. *)

let count = Metrics.count
let valuef = Metrics.valuef

let have m names = List.exists (fun n -> Metrics.get m n <> None) names

(* metrics under a prefix, name-sorted (dump order) *)
let with_prefix m prefix =
  List.filter_map
    (fun (name, v) ->
      if String.starts_with ~prefix name then
        Some (String.sub name (String.length prefix)
                (String.length name - String.length prefix), v)
      else None)
    (Metrics.dump m)

let cache_summary m =
  if not (have m [ "eval.cache.hits"; "eval.cache.misses"; "eval.cache.entries" ])
  then None
  else begin
    let hits = count m "eval.cache.hits"
    and misses = count m "eval.cache.misses" in
    let looked_up = hits + misses in
    let rate =
      if looked_up = 0 then 0.0
      else 100.0 *. float_of_int hits /. float_of_int looked_up
    in
    Some
      (Printf.sprintf
         "cache: %d entries (~%d KiB), %d hits / %d misses (%.1f%% hit \
          rate), %d evictions"
         (int_of_float (valuef m "eval.cache.entries"))
         ((int_of_float (valuef m "eval.cache.bytes") + 1023) / 1024)
         hits misses rate
         (count m "eval.cache.evictions"))
  end

(* the engine publishes its fast-transient mode as a gauge (0 = off,
   2 = reduce-bypass) so the report header can name it *)
let fast_mode_string m =
  match Metrics.get m "spice.fast_mode" with
  | Some (Metrics.Value v) ->
    Some (if v >= 2.0 then "reduce-bypass" else "off")
  | _ -> None

let pp fmt ((m : Metrics.t), (trace : Trace.t option)) =
  let line fmt_str = Format.fprintf fmt fmt_str in
  (match fast_mode_string m with
   | Some mode -> line "== run report (fast=%s) ==@." mode
   | None -> line "== run report ==@.");
  (* solver effort *)
  if
    have m
      [ "spice.dc.analyses"; "spice.transient.analyses";
        "spice.newton_iterations" ]
  then begin
    line "solver effort:@.";
    let analyses what =
      let a = count m (what ^ ".analyses")
      and f = count m (what ^ ".failures") in
      let label =
        match String.rindex_opt what '.' with
        | Some i ->
          String.sub what (i + 1) (String.length what - i - 1) ^ " analyses"
        | None -> what ^ " analyses"
      in
      if a > 0 || f > 0 then
        line "  %-22s %d%s@." label a
          (if f > 0 then Printf.sprintf " (%d failed)" f else "")
    in
    analyses "spice.dc";
    analyses "spice.transient";
    line "  %-22s %d@." "newton iterations" (count m "spice.newton_iterations");
    line "  %-22s %d@." "factorizations" (count m "spice.factorizations");
    let opt name label =
      let v = count m name in
      if v > 0 then line "  %-22s %d@." label v
    in
    opt "spice.step_rejections" "step rejections";
    opt "spice.gmin_rounds" "gmin rounds"
  end;
  (* breakpoint simulator *)
  if have m [ "bp.simulations" ] then begin
    line "breakpoint simulator:@.";
    line "  %-22s %d@." "simulations" (count m "bp.simulations");
    line "  %-22s %d@." "events" (count m "bp.events");
    line "  %-22s %d@." "rail solves" (count m "bp.rail_solves")
  end;
  if have m [ "selective.evaluations" ] then begin
    line "selective optimizer:@.";
    List.iter (fun k -> line "  %-22s %d@." k (count m ("selective." ^ k)))
      [ "evaluations"; "flips"; "reclaims"; "moves" ]
  end;
  (* batch runner *)
  if have m [ "runner.jobs.total" ] then begin
    line "runner:@.";
    line "  %-22s %d@." "jobs" (count m "runner.jobs.total");
    line "  %-22s %d@." "executed" (count m "runner.jobs.executed");
    let opt name label =
      let v = count m name in
      if v > 0 then line "  %-22s %d@." label v
    in
    opt "runner.jobs.replayed" "replayed";
    opt "runner.jobs.degraded" "degraded";
    opt "runner.jobs.failed" "failed"
  end;
  (* resilience + recovery ladder *)
  if have m [ "eval.resilience.attempted" ] then begin
    line "resilience:@.";
    line "  %-22s %d@." "attempted" (count m "eval.resilience.attempted");
    line "  %-22s %d@." "direct" (count m "eval.resilience.direct");
    line "  %-22s %d@." "recovered" (count m "eval.resilience.recovered");
    line "  %-22s %d@." "skipped" (count m "eval.resilience.skipped");
    let opt name label =
      let v = count m name in
      if v > 0 then line "  %-22s %d@." label v
    in
    opt "eval.resilience.fallback" "estimated instead";
    opt "eval.resilience.scored_zero" "scored zero"
  end;
  (match with_prefix m "eval.resilience.recovery." with
   | [] -> ()
   | ladder ->
     line "recovery ladder:@.";
     List.iter
       (fun (name, v) ->
         match v with
         | Metrics.Count k -> line "  %-22s x%d@." name k
         | _ -> ())
       ladder);
  (* cache *)
  (match cache_summary m with
   | Some s -> line "%s@." s
   | None -> ());
  (* pool utilization *)
  if have m [ "par.pool.calls" ] then begin
    line "pool:@.";
    line "  %-22s %d@." "calls" (count m "par.pool.calls");
    line "  %-22s %g@." "max jobs" (valuef m "par.jobs");
    let workers = with_prefix m "par.worker." in
    let tasks_of w =
      List.assoc_opt (w ^ ".tasks") workers
      |> Option.map (function Metrics.Count k -> k | _ -> 0)
    in
    let busy_of w =
      List.assoc_opt (w ^ ".busy_s") workers
      |> Option.map (function Metrics.Value v -> v | _ -> 0.0)
    in
    (* every pool worker gets a row: a worker that recorded no spans
       (all its chunks were stolen by faster peers, or the range was
       shorter than the pool) reports 0 rather than vanishing *)
    let observed =
      List.filter_map
        (fun (k, _) ->
          match String.index_opt k '.' with
          | Some i -> int_of_string_opt (String.sub k 0 i)
          | None -> None)
        workers
    in
    let jobs = int_of_float (valuef m "par.jobs") in
    let ids =
      List.sort_uniq compare
        (observed @ List.init (max 0 jobs) (fun i -> i))
    in
    let total_busy =
      List.fold_left
        (fun acc w ->
          acc
          +. Option.value ~default:0.0 (busy_of (string_of_int w)))
        0.0 ids
    in
    List.iter
      (fun w ->
        let key = string_of_int w in
        let busy = Option.value ~default:0.0 (busy_of key) in
        let share =
          if total_busy > 0.0 then 100.0 *. busy /. total_busy else 0.0
        in
        line "  worker %-15s %d tasks, %.3f s busy (%.0f%%)@." key
          (Option.value ~default:0 (tasks_of key))
          busy share)
      ids
  end;
  (* daemon latency percentiles *)
  if have m [ "serve.latency_s"; "serve.queue_wait_s" ] then begin
    line "daemon latency:@.";
    let row name label =
      match Option.bind (Metrics.get m name) (fun v ->
                match Metrics.Hist.percentiles_of_value v with
                | Some pcts -> Some (v, pcts)
                | None -> None)
      with
      | Some (Metrics.Dist d, (p50, p90, p99)) ->
        line "  %-22s p50 %.4fs  p90 %.4fs  p99 %.4fs  (%d sample(s))@."
          label p50 p90 p99 d.total
      | _ -> ()
    in
    row "serve.latency_s" "request latency";
    row "serve.queue_wait_s" "queue wait"
  end;
  (* hottest spans + call paths, from the profiler *)
  (match trace with
   | None -> ()
   | Some tr ->
     let prof = Prof.of_trace tr in
     let ranked =
       List.sort
         (fun (n1, _, t1, _) (n2, _, t2, _) ->
           match Float.compare t2 t1 with 0 -> compare n1 n2 | c -> c)
         (Prof.labels prof)
     in
     if ranked <> [] then begin
       line "hottest spans:@.";
       List.iteri
         (fun i (name, calls, total, self) ->
           if i < 8 then
             line "  %-22s %6d calls  %10.4f s total  %8.4f s self@." name
               calls total self)
         ranked;
       line "hot paths (self time):@.";
       List.iter
         (fun (n : Prof.node) ->
           line "  %10.4f s  %s@." n.Prof.self_s
             (String.concat ";" n.Prof.path))
         (Prof.top ~k:4 prof)
     end)

let render m trace = Format.asprintf "%a" pp (m, trace)
