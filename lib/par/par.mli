(** Deterministic Domain-based fan-out for embarrassingly parallel
    sweeps.

    Every hot loop in this codebase — W/L sweeps, worst-vector hunts,
    characterisation grids, Monte-Carlo sampling — evaluates thousands
    of independent simulations.  {!Pool} spreads an index range over
    OCaml 5 domains with a schedule that is {e deterministic by
    construction}:

    - the range is cut into fixed chunks; chunk [c] covers indices
      [c * chunk .. min n ((c+1) * chunk) - 1];
    - chunks are assigned to workers statically (worker [w] owns every
      chunk [c] with [c mod jobs = w]), so which domain computes which
      index never depends on timing;
    - results are written into per-chunk slots and concatenated in
      index order, so the output equals the sequential run bit for bit
      whatever [jobs] is;
    - per-worker states (e.g. resilience/telemetry accumulators) are
      handed back to the caller's domain and merged in worker order,
      so counter totals are exact and every run with the same [jobs]
      merges in the same order;
    - a worker exception aborts the sweep and is re-raised in the
      caller (never a hang); when several workers fail, the exception
      of the lowest-numbered worker wins, deterministically.

    The pool is dependency-free (no domainslib): plain [Domain.spawn]
    / [Domain.join], one spawn per worker per call.  Calls are
    independent — there is no persistent pool to shut down. *)

module Pool : sig
  val default_jobs : unit -> int
  (** [Domain.recommended_domain_count ()] — what [?jobs] defaults to
      at the CLI surface. *)

  val map_stateful :
    ?obs:Obs.t ->
    ?jobs:int ->
    ?chunk:int ->
    create:(unit -> 'w) ->
    merge:('w -> unit) ->
    int ->
    ('w -> int -> 'a) ->
    'a array
  (** [map_stateful ~create ~merge n f] is [[| f w 0; ...; f w (n-1) |]],
      computed on [jobs] domains (default 1 — parallelism is strictly
      opt-in for library callers).  [chunk] is the fixed chunk length
      (default: [n] divided over 4 chunks per worker, at least 1).
      Deterministic: the result is identical for every [jobs]/[chunk]
      choice.

      Each worker domain gets its own state [w] from [create ()] (run
      inside that domain), every index it owns is evaluated with that
      state, and after all workers have joined, [merge] is called on
      each state {e in worker order} in the caller's domain.  This is
      how sweeps thread [Eval.Resilience] / [Spice.Diag] accumulators
      through a parallel region without locks: worker-local recording,
      exact merged totals.

      [obs] (default [Obs.disabled]) records the pool's self-metrics —
      [par.pool.calls], the [par.jobs] high-water gauge, and per-worker
      [par.worker.<w>.tasks] / [par.worker.<w>.busy_s] — plus a
      ["par.pool"] span when tracing.  Workers time and count their
      own chunks at disjoint indices; the counters are folded into the
      registry in worker order after the join.  A pool started inside
      another pool's worker records no per-worker figures, since the
      enclosing worker's already cover its time, so each worker's busy
      seconds stay within the run's wall time.  These [par.*] metrics
      describe the schedule itself and are the one metric family that
      legitimately varies with [jobs].
      @raise Invalid_argument when [jobs < 1]. *)
end
