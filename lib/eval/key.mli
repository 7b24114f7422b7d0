(** Structural digest builder for cache keys.

    A key is built by appending typed atoms to a buffer; every atom is
    framed unambiguously (type tag + length or fixed width), so two
    different append sequences can never produce the same byte string —
    ["ab"] followed by ["c"] differs from ["a"] followed by ["bc"].
    Floats are serialized through their IEEE-754 bit pattern
    ([Int64.bits_of_float]), so keys distinguish every representable
    value (including [-0.] vs [0.] and NaN payloads) and never lose
    precision to decimal printing.

    Higher-level appenders cover the records that parameterize an
    evaluation: technology cards, device cards, sleep models, recovery
    policies and whole circuits.  What goes into a digest (and what is
    deliberately left out, e.g. net names) is documented in DESIGN.md,
    "Evaluation context and memoization". *)

type t

val create : unit -> t

val raw : t -> string -> unit
(** Append bytes verbatim — only for fixed tags that cannot collide
    with framed data (e.g. a leading version tag). *)

val string : t -> string -> unit
(** Length-prefixed string. *)

val int : t -> int -> unit
val bool : t -> bool -> unit

val float : t -> float -> unit
(** Exact: appends the IEEE-754 bit pattern. *)

val option : t -> (t -> 'a -> unit) -> 'a option -> unit

val ints : t -> (int * int) list -> unit
(** A (net, value) assignment list, length-prefixed. *)

val tech : t -> Device.Tech.t -> unit
val sleep : t -> Device.Sleep.t -> unit

val circuit : t -> Netlist.Circuit.t -> unit
(** Structural digest of a frozen circuit: technology card, net count,
    input/output/tie nets, every gate (kind, arity, input nets, output
    net, drive strength) in topological order, and the per-net load
    capacitance (which folds in explicit extra loads).  Net and gate
    {e names} are excluded: renaming a net must not miss the cache. *)

val contents : t -> string
(** The raw framed bytes accumulated so far. *)

val digest : t -> string
(** 16-byte MD5 of {!contents} — the cache key. *)
