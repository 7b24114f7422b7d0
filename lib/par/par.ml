(* Deterministic chunked fan-out over OCaml 5 domains.  See par.mli for
   the scheduling contract; the short version: fixed chunks, static
   round-robin chunk->worker assignment, results concatenated in index
   order, worker states merged in worker order, worker exceptions
   re-raised in the caller (lowest worker wins). *)

module Pool = struct
  let default_jobs () = Domain.recommended_domain_count ()

  (* A worker either finishes with its state or aborts with the first
     exception it hit; partial chunk results are discarded. *)
  type 'w outcome =
    | Finished of 'w
    | Aborted of exn * Printexc.raw_backtrace

  (* set while this domain runs a pool worker: a pool started there is
     nested, its time already inside the enclosing worker's *)
  let in_worker = Domain.DLS.new_key (fun () -> false)

  (* run [f] as a pool worker of this domain *)
  let as_worker f =
    let outer = Domain.DLS.get in_worker in
    Domain.DLS.set in_worker true;
    Fun.protect ~finally:(fun () -> Domain.DLS.set in_worker outer) f

  let chunk_bounds ~chunk ~n c =
    let lo = c * chunk in
    (lo, min n (lo + chunk))

  (* Evaluate one chunk into a fresh array, strictly in index order
     (Array.init's evaluation order is unspecified, so spell the loop
     out). *)
  let eval_chunk ~chunk ~n f state c =
    let lo, hi = chunk_bounds ~chunk ~n c in
    if hi <= lo then [||]
    else begin
      let first = f state lo in
      let dst = Array.make (hi - lo) first in
      for i = lo + 1 to hi - 1 do
        dst.(i - lo) <- f state i
      done;
      dst
    end

  let map_stateful ?(obs = Obs.disabled) ?(jobs = 1) ?chunk ~create ~merge n
      f =
    if n < 0 then invalid_arg "Par.Pool: negative range";
    if jobs < 1 then invalid_arg (Printf.sprintf "Par.Pool: jobs = %d" jobs);
    let jobs = max 1 (min jobs n) in
    let chunk =
      match chunk with
      | Some c when c >= 1 -> c
      | Some c -> invalid_arg (Printf.sprintf "Par.Pool: chunk = %d" c)
      | None -> max 1 ((n + (4 * jobs) - 1) / (4 * jobs))
    in
    let num_chunks = if n = 0 then 0 else (n + chunk - 1) / chunk in
    (* pool self-metrics: per-worker task counts and busy seconds,
       written at disjoint indices inside each worker (published by the
       join) and recorded into the registry in worker order.  These
       [par.*] metrics describe the pool itself, so — unlike everything
       else recorded through [obs] — they legitimately vary with
       [jobs].  A nested pool records no per-worker figures: its
       enclosing worker's already count its tasks' time. *)
    let active = Obs.metrics_on obs in
    let per_worker = active && not (Domain.DLS.get in_worker) in
    let wtasks = Array.make jobs 0 and wbusy = Array.make jobs 0.0 in
    let record_pool () =
      if active then begin
        Obs.incr obs "par.pool.calls";
        Obs.max_gauge obs "par.jobs" (float_of_int jobs);
        if per_worker then
          for w = 0 to jobs - 1 do
            let key = Printf.sprintf "par.worker.%d" w in
            Obs.incr obs ~by:wtasks.(w) (key ^ ".tasks");
            Obs.addf obs (key ^ ".busy_s") wbusy.(w)
          done
      end
    in
    Obs.Span.with_ obs "par.pool" @@ fun () ->
    if jobs = 1 then begin
      (* single-domain fallback: same chunk walk, no spawn *)
      let state = create () in
      let t0 = if active then Obs.Clock.now () else 0.0 in
      let parts = Array.make num_chunks [||] in
      as_worker (fun () ->
          for c = 0 to num_chunks - 1 do
            parts.(c) <- eval_chunk ~chunk ~n f state c
          done);
      if active then begin
        wtasks.(0) <- n;
        wbusy.(0) <- Obs.Clock.elapsed_since t0
      end;
      merge state;
      record_pool ();
      Array.concat (Array.to_list parts)
    end
    else begin
      let parts = Array.make num_chunks [||] in
      let worker w () =
        match
          as_worker @@ fun () ->
          let state = create () in
          let t0 = if active then Obs.Clock.now () else 0.0 in
          let c = ref w in
          while !c < num_chunks do
            let lo, hi = chunk_bounds ~chunk ~n !c in
            parts.(!c) <- eval_chunk ~chunk ~n f state !c;
            if active then wtasks.(w) <- wtasks.(w) + (hi - lo);
            c := !c + jobs
          done;
          if active then wbusy.(w) <- Obs.Clock.elapsed_since t0;
          state
        with
        | state -> Finished state
        | exception e -> Aborted (e, Printexc.get_raw_backtrace ())
      in
      (* workers 1..jobs-1 in spawned domains, worker 0 in the caller *)
      let spawned =
        Array.init (jobs - 1) (fun i -> Domain.spawn (worker (i + 1)))
      in
      let outcomes = Array.make jobs (worker 0 ()) in
      Array.iteri (fun i d -> outcomes.(i + 1) <- Domain.join d) spawned;
      (* joined every domain before deciding: no leaks on failure, and
         the surviving exception is the lowest worker's *)
      Array.iter
        (function
          | Aborted (e, bt) -> Printexc.raise_with_backtrace e bt
          | Finished _ -> ())
        outcomes;
      Array.iter
        (function Finished s -> merge s | Aborted _ -> assert false)
        outcomes;
      record_pool ();
      Array.concat (Array.to_list parts)
    end
end
