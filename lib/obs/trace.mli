(** Span tracing: nested, monotonic-clock spans collected into a shared
    sink and exported as Chrome [trace_event] JSON (loadable in
    Perfetto / [chrome://tracing]) or as a structured JSONL log.

    The sink is mutex-guarded, so worker domains of a parallel region
    append concurrently; every event carries the recording domain's id
    as [tid], and within one [tid] spans are properly nested (a span is
    recorded when it closes, with the start time and duration taken
    from {!Clock}).  Nesting depth is tracked per domain. *)

type t

type event = {
  name : string;
  tid : int;            (** recording domain id *)
  ts : float;           (** start, seconds on the {!Clock} timeline *)
  dur : float;          (** duration, seconds *)
  depth : int;          (** nesting depth within [tid] when recorded *)
  args : (string * float) list;  (** numeric span payload *)
}

val create : unit -> t

val with_span :
  t -> ?args:(unit -> (string * float) list) -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span.  The span is recorded when the thunk
    returns {e or raises}; [args] is evaluated at close time. *)

val events : t -> event list
(** Snapshot of all events, sorted by [(ts, tid, depth)]. *)

(** {1 Export} *)

val to_chrome_json : ?metrics:Metrics.t -> t -> string
(** The Chrome [trace_event] JSON object: complete ("ph":"X") events
    with microsecond timestamps rebased to the earliest span.  When
    [metrics] is given, its counter dump is embedded under
    [otherData.counters] so a trace file is self-contained for
    {!validate_string}'s span/counter reconciliation. *)

val write_chrome : ?metrics:Metrics.t -> t -> string -> unit
(** Write {!to_chrome_json} to a file. *)

(** {1 Validation}

    The checks behind [mtsize trace-check] and the [obs] bench gate:
    the file parses, every event is a well-formed complete event, spans
    within one [tid] nest properly (contain or are disjoint), and —
    when the writer embedded registry counters — the span counts
    reconcile (±1) with their [<name>.analyses]-style counters and the
    per-span [newton]/[factorizations] args sum to the corresponding
    registry totals (±1). *)

type check = {
  events_checked : int;
  tids : int;
  reconciled : (string * int * int) list;
      (** (description, span-side total, counter-side total) pairs the
          validator compared *)
}

val validate_string : string -> (check, string list) result

val validate_file : string -> (check, string list) result
(** [Error] also covers unreadable files. *)
