(** Call-tree profiler aggregated from the {!Trace} span sink.

    A profile is a pure function of the recorded events — building one
    is a single post-run pass, so [--profile] adds no per-span cost on
    top of tracing itself.  Spans are grouped along two axes:

    - {b full ancestor path} ({!paths}, {!top}, {!to_collapsed}): the
      flamegraph view.  Paths depend on scheduling — [Par.Pool] runs
      jobs=1 inline but roots worker spans at their own domain at
      jobs>1 — so path-keyed data is {e not} jobs-invariant.
    - {b label} ({!labels}, {!golden}): per-span-name call counts and
      times.  The same spans are recorded regardless of scheduling, so
      per-label {e call counts} are invariant in [--jobs] and in cache
      configuration (a cold run evaluates the same work either way);
      timings of course are not. *)

type node = {
  path : string list;  (** root-first label path *)
  calls : int;
  total_s : float;     (** summed span durations *)
  self_s : float;      (** total minus direct children's total *)
}

type t

val empty : t

val of_events : Trace.event list -> t
(** Build from a {!Trace.events} snapshot (sorted by [(ts, tid,
    depth)], the order {!Trace.events} guarantees). *)

val of_trace : Trace.t -> t

val paths : t -> node list
(** Every distinct call path, sorted by path. *)

val labels : t -> (string * int * float * float) list
(** Per-label [(name, calls, total_s, self_s)], sorted by name —
    the jobs-invariant aggregation. *)

val top : ?k:int -> t -> node list
(** The [k] (default 8) hottest paths by self time. *)

val to_collapsed : t -> string
(** Collapsed-stack flamegraph format: one
    ["frame;frame;frame <self-µs>"] line per path, sorted by path —
    directly consumable by [flamegraph.pl] / [inferno-flamegraph]. *)

val golden : t -> string
(** Timing-free view: one ["label calls"] line per span name, sorted —
    byte-identical across jobs and cache settings for the same work. *)

