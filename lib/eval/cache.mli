(** Content-addressed, bounded memoization cache for simulator results.

    Values are flat [float array]s (every cached quantity in the tool is
    a tuple of floats), keyed by a structural digest built with {!Key}.
    The table is bounded by an entry count and evicts least-recently
    used entries.  Storage is split into [shards] lock-striped LRUs
    (default 1), a key routing to a shard by its first digest byte —
    a pure function of the key — so concurrent clients (Par.Pool worker
    domains, the serve daemon's request threads) contend per shard
    instead of serializing on one mutex.  Hit/miss counts may depend on
    scheduling under true concurrency, but the values returned never
    do, because a hit returns exactly the floats a miss stored; under a
    deterministic schedule with no evictions the merged counters are
    also shard-count-invariant.

    Each entry may also carry a {!Resilience} snapshot of the counters
    the computation recorded; {!memo} replays the snapshot into the
    caller's accumulator on every hit, so resilience totals are
    identical with the cache on or off, cold or warm (see DESIGN.md).

    {!save}/{!load} persist entries (not their resilience snapshots) to
    a small text file so e.g. a [search] run can warm a later [sweep]. *)

type t

type entry = {
  floats : float array;
  stats : Resilience.t option;
      (** resilience deltas the computation recorded, replayed on hit *)
}

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** current population *)
  bytes : int;    (** estimated heap footprint of the stored entries *)
}
(** Merged totals over every shard. *)

val create : ?max_entries:int -> ?shards:int -> unit -> t
(** Default bound: 65536 entries, 1 shard.  The per-shard capacity is
    [max_entries / shards] rounded up, so the total bound is at least
    [max_entries] whatever the stripe count.
    @raise Invalid_argument when [max_entries <= 0] or [shards] is
    outside [1, 256]. *)

val find : t -> string -> entry option
(** Look up a key, counting a hit (and bumping recency) or a miss. *)

val store : t -> string -> entry -> unit
(** Insert or replace, evicting least-recently-used entries as needed. *)

val counters : t -> counters

val publish : t -> Obs.t -> unit
(** Copy the current counters into the registry as the
    [eval.cache.hits] / [misses] / [evictions] counters and
    [eval.cache.entries] / [bytes] gauges ([set], not [incr], so
    publishing is idempotent).  The CLI publishes once at the end of a
    run; [--cache-stats] and the run report then render the registry
    view ([Obs.Report.cache_summary]). *)

val memo :
  ?cache:t ->
  ?stats:Resilience.t ->
  key:string Lazy.t ->
  arity:int ->
  to_floats:('a -> float array) ->
  of_floats:(float array -> 'a) ->
  (Resilience.t option -> 'a) ->
  'a
(** [memo ?cache ?stats ~key ~arity ~to_floats ~of_floats compute]
    is the one memoization protocol every call site uses:

    - no [cache]: run [compute stats] directly (zero overhead, the key
      is never forced);
    - hit (entry with [arity] floats): replay the entry's resilience
      snapshot into [stats] and return [of_floats entry.floats];
    - miss: run [compute] against a {e fresh} accumulator, merge the
      fresh accumulator into [stats], store the floats together with
      the accumulator (when it recorded anything) and return the value.

    An entry whose float count differs from [arity] (possible only via
    a corrupted or stale cache file) is treated as a miss and
    overwritten.  Exceptions from [compute] propagate; nothing is
    stored. *)

val save : t -> string -> unit
(** Write the entries to [file], shards in index order, each in
    LRU-to-MRU order (so {!load} restores per-shard recency).
    Resilience snapshots are not persisted: entries served from a
    loaded cache replay no counters.
    @raise Sys_error on I/O failure. *)

val load : ?max_entries:int -> ?shards:int -> string -> t
(** Read a cache written by {!save}.  Counters start at zero.  The file
    carries no shard count: entries re-route by their own digest, so a
    cache saved at one stripe count loads at any other.
    @raise Sys_error on I/O failure.
    @raise Failure on a malformed file. *)
