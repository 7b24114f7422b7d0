(** Streaming request-latency estimation for the daemon: rolling
    10s/60s percentile windows plus a bounded slow-request log, both
    exposed on [/metrics].

    Samples land in fixed-bucket one-second slots (a small ring), so
    memory is O(buckets), not O(requests), and window percentiles are
    {!Obs.Metrics.Hist.percentiles} over the summed slots.

    {b Not thread-safe}: the daemon guards it with the same mutex that
    guards the shared registry. *)

type t

type slow = {
  rid : string;
  latency_s : float;
  queue_wait_s : float;
  at : float;  (** epoch seconds *)
}

val default_buckets : float array
(** Upper edges in seconds, 100µs .. 30s. *)

val create :
  ?slow_threshold_s:float ->
  ?slow_cap:int ->
  unit ->
  t
(** Buckets {!default_buckets}; defaults: 1s threshold, last 16 slow requests
    kept. *)

val slow_threshold_s : t -> float

val record :
  t -> now:float -> rid:string -> latency_s:float -> queue_wait_s:float ->
  unit
(** One finished request: [now] is epoch seconds (slot selector);
    requests at or above the slow threshold also enter the slow log. *)

val window_percentiles :
  t -> [ `Latency | `Queue_wait ] -> now:float -> seconds:int ->
  (float * float * float) option
(** [(p50, p90, p99)] over the last [seconds]; [None] when the window
    holds no samples. *)

val slow_requests : t -> slow list
(** Oldest first, at most [slow_cap] entries. *)

val to_jsonl : t -> now:float -> string
(** The [/metrics] extension: window percentiles as plain value metrics
    ([serve.latency_s.p99.10s]-style names) and one
    [{"slow_request": ...}] object per slow-log entry. *)
