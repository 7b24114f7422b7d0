(** Unified observability: a metrics registry ({!Metrics}), hierarchical
    tracing ({!Trace} / {!Span}) and run reports ({!Report}), bundled
    into one {!t} value threaded through [Eval.Ctx].

    {b Zero-cost when off.}  {!disabled} records nothing: every entry
    point checks a flag before touching the registry, reading the
    clock or allocating, so instrumented hot paths behave identically
    with observability off (the [obs] bench experiment gates this at
    <5% overhead).

    {b Jobs-invariant totals.}  Worker domains of a parallel region
    record into a {!shard} (private registry, shared trace sink);
    [Par.Pool] call sites fold the shards back with {!merge_shard} in
    worker order, mirroring the [Eval.Resilience] merge rule.  Every
    metric except the pool's own [par.*] self-metrics is therefore
    invariant in [--jobs].

    Metric-name taxonomy (see DESIGN.md "Observability"): [spice.*]
    solver effort, [bp.*] breakpoint-simulator activity,
    [eval.resilience.*] / [eval.cache.*] evaluation-layer accounting,
    [par.*] pool utilization. *)

module Clock = Clock
module Metrics = Metrics
module Json = Json
module Trace = Trace
module Prof = Prof
module Report = Report

type t

val disabled : t
(** The no-op instance — the default everywhere. *)

val create : ?trace:bool -> unit -> t
(** A live instance: metrics collection on, plus a trace sink when
    [trace] (default [false]). *)

val enabled : t -> bool
val metrics_on : t -> bool
val metrics : t -> Metrics.t
val trace : t -> Trace.t option

val spans_only : t -> t
(** Same trace sink, metrics recording off.  The engine hands this to
    {e nested} analyses (the operating-point solve inside a transient)
    so counters are flushed exactly once per top-level analysis while
    the nested span still appears in the trace. *)

(** {1 Recording} (all no-ops on {!disabled}) *)

val incr : ?by:int -> t -> string -> unit
val set_count : t -> string -> int -> unit
val addf : t -> string -> float -> unit
val set_gauge : t -> string -> float -> unit

val max_gauge : t -> string -> float -> unit
(** Set a gauge to the max of its current and the given value. *)

val observe : ?buckets:float array -> t -> string -> float -> unit

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span when tracing, else call it
    directly. *)

(** The spelling from the tracing API:
    [Obs.Span.with_ obs "newton" @@ fun () -> ...]. *)
module Span : sig
  val with_ :
    t -> ?args:(unit -> (string * float) list) -> string -> (unit -> 'a) -> 'a
  (** {!with_span}, with span arguments; [args] is only evaluated at
      span close. *)
end

(** {1 Parallel sharding} *)

val shard : t -> t
(** A worker-domain view: fresh private registry, same trace sink.
    {!disabled} shards to itself (no allocation). *)

val merge_shard : into:t -> t -> unit
(** Fold a worker shard's registry into [into]'s — call in worker
    order after the join.  No-op for disabled instances or when the
    shard {e is} [into]. *)

(** {1 Output} *)

val report : t -> string
(** {!Report.render} over this instance's registry and trace. *)

val metrics_jsonl : t -> string

val write_trace : t -> string -> unit
(** Write the Chrome trace (with embedded registry counters, see
    {!Trace.to_chrome_json}) to a file; no-op when not tracing. *)

val profile : t -> Prof.t
(** {!Prof.of_trace} over this instance's span sink; {!Prof.empty}
    when not tracing. *)

val write_profile : t -> string -> unit
(** Write the collapsed-stack flamegraph export ({!Prof.to_collapsed})
    to [file], plus the timing-free {!Prof.golden} view (per-label call
    counts, invariant in [--jobs] and cache settings) to
    [file ^ ".golden"]; no-op when not tracing. *)
