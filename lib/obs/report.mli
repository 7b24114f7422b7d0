(** End-of-run summary rendering over a metrics registry and an
    optional trace: solver effort, breakpoint-simulator activity,
    resilience/recovery-ladder usage, cache hit rates, per-worker pool
    utilization and the top-k hottest spans.  Sections whose metrics
    were never recorded are omitted. *)

val render : Metrics.t -> Trace.t option -> string

val cache_summary : Metrics.t -> string option
(** The one-line cache view over the registry's [eval.cache.*] metrics;
    [None] when no cache metrics were published. *)
