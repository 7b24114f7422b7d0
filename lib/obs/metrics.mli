(** Named-metric registry: counters, float sums, gauges and fixed-bucket
    histograms.

    A registry is {e not} thread-safe; the sharing model mirrors
    [Eval.Resilience]: every worker domain of a parallel region records
    into its own shard ([create ()]) and the shards are folded into the
    caller's registry with {!merge} {e in worker order} after the join.
    Counter, sum and histogram merges are commutative additions, so
    every total except the [par.*] pool self-metrics is invariant in
    the number of workers; gauges merge by [max].

    Kinds are fixed at first use — recording a name with a different
    kind raises [Invalid_argument], which keeps the namespace honest. *)

type t

type value =
  | Count of int                      (** counter *)
  | Value of float                    (** float sum or gauge *)
  | Dist of {
      bounds : float array;           (** upper bucket edges, increasing *)
      counts : int array;             (** one per bound plus overflow *)
      sum : float;
      total : int;
    }  (** histogram *)

val create : unit -> t

val incr : ?by:int -> t -> string -> unit
(** Bump a counter (default [by = 1]). *)

val addf : t -> string -> float -> unit
(** Accumulate into a float sum (e.g. busy seconds). *)

val set_gauge : t -> string -> float -> unit
(** Set a gauge to its latest value (merge takes the max). *)

val set_count : t -> string -> int -> unit
(** Overwrite a counter — for publishing a total accumulated elsewhere
    (e.g. the mutex-guarded cache counters) into the registry. *)

val observe : ?buckets:float array -> t -> string -> float -> unit
(** Record a sample into a fixed-bucket histogram.  [buckets] (upper
    edges, strictly increasing; default powers of two up to 256) is
    consulted only when the histogram is created; a sample [v] lands in
    the first bucket with [v <= edge], else in the overflow bucket. *)

(** Percentile summaries over the fixed-bucket histogram representation
    — the one estimator shared by {!Report} and the daemon's [/metrics]
    view. *)
module Hist : sig
  val percentile : bounds:float array -> counts:int array -> float -> float
  (** [percentile ~bounds ~counts p] estimates the [p]-th percentile
      ([0 <= p <= 100]) by linear interpolation inside the admitting
      bucket (bucket [i] spans [bounds.(i-1) .. bounds.(i)], the first
      bucket starts at 0).  A rank landing in the overflow bucket
      reports the last finite edge; an empty histogram reports [0.].
      @raise Invalid_argument when [p] is outside [0, 100]. *)

  val percentiles :
    bounds:float array -> counts:int array -> float * float * float
  (** [(p50, p90, p99)]. *)

  val percentiles_of_value : value -> (float * float * float) option
  (** {!percentiles} of a non-empty [Dist]; [None] otherwise. *)
end

val count : t -> string -> int
(** Current counter value (0 when absent). *)

val valuef : t -> string -> float
(** Current float-sum or gauge value (0. when absent). *)

val get : t -> string -> value option

val merge : into:t -> t -> unit
(** Fold a worker shard into [into]: counters, sums and histogram
    buckets add; gauges take the max.
    @raise Invalid_argument on a kind or histogram-shape clash. *)

val dump : t -> (string * value) list
(** Every metric, sorted by name — the deterministic export order. *)

val to_jsonl : t -> string
(** One JSON object per line per metric, sorted by name. *)

