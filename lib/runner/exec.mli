(** Batch execution over one shared {!Eval.Ctx}.

    Jobs run in file order through a single evaluation context — one
    cache, one observability registry, one worker-pool budget — so
    later jobs reuse earlier jobs' solver work.  Per-job failures are
    isolated: an exception becomes a ["failed"] manifest entry and the
    batch continues.  With a [?journal] path, each completed job is
    checkpointed and a re-run replays completed fragments verbatim,
    producing a manifest byte-identical to an uninterrupted run. *)

type status = Clean | Degraded | Failed

val status_string : status -> string
(** ["ok"], ["degraded"], ["failed"]. *)

type outcome = {
  manifest : string;
      (** machine-readable JSON document; a pure function of the spec
          (no timestamps, worker counts, or cache statistics), hence
          suitable for golden comparison across [--jobs] values and
          cache states *)
  total : int;
  executed : int;  (** jobs run in this invocation *)
  replayed : int;  (** jobs served verbatim from the journal *)
  ok : int;
  degraded : int;  (** completed, but the recovery ladder skipped work *)
  failed : int;
  interrupted : bool;  (** stopped early by [?stop_after] *)
}

(** A job's typed answer, one case per {!Spec.kind}. *)
type answer =
  | Sweep_answer of Mtcmos.Sizing.measurement list
  | Size_answer of {
      target : float;
      wl : float;  (** smallest W/L meeting [target] *)
      measurement : Mtcmos.Sizing.measurement;  (** verified at [wl] *)
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

val answer_json : answer -> Json.t
(** The ["result"] field of the job's manifest entry. *)

val with_overrides : Spec.overrides -> Eval.Ctx.t -> Eval.Ctx.t
(** Apply engine / worker-count / Newton-budget overrides to a context;
    a budget [n > 0] caps the transistor-level solver's Newton
    iterations (see {!Spice.Engine.Opts.t}). *)

val exec_job :
  Eval.Ctx.t ->
  Device.Tech.t ->
  Catalog.bench_circuit option ->
  Spec.job ->
  (answer, string) result * Eval.Resilience.t
(** Run one job: the single execution path of {!run} and of the
    analysis subcommands, which build a one-job {!Spec.job} from their
    flags ({!run} falls back to the batch's defaults where a job has
    no override).  The context gets the job's overrides and a fresh
    resilience accumulator
    ({!Eval.Ctx.for_job}), returned for the caller's report.  Any
    exception inside the job (infeasible size or budget, bad vector,
    solver failure) becomes [Error message]. *)

val run :
  ?ctx:Eval.Ctx.t ->
  ?journal:string ->
  ?fresh:bool ->
  ?stop_after:int ->
  ?deadline:float ->
  ?on_fragment:(id:string -> status:status -> string -> unit) ->
  Spec.t ->
  (outcome, string) result
(** [run spec] executes every job.  [?journal] checkpoints each
    completed job and resumes from an existing compatible journal;
    [~fresh:true] ignores (and truncates) any existing journal.
    [?stop_after:k] stops before executing the [k+1]-th {e fresh} job —
    the test hook that simulates an interrupt.

    [?deadline] is an absolute wall-clock time ([Unix.gettimeofday]
    seconds), polled at job boundaries only: once it has passed, the
    next job does not start.  A job in flight always completes, is
    journaled, and counts; the run then stops with
    [interrupted = true] (it does not raise).  Combined with
    [?journal], a batch stopped this way is indistinguishable from a crashed
    one — a later run resumes it.  This is how the serve daemon
    enforces per-request deadlines without ever tearing a manifest.

    [?on_fragment] streams each fragment as it enters the manifest, in
    manifest order — replayed entries too, so a consumer reconstructs
    the full document.  For fresh jobs it fires {e after} the journal
    append: anything a consumer has seen is durably checkpointed.

    [Error _] is a spec-level problem (bad tech/circuit declaration,
    incompatible journal); per-job errors never surface here. *)
