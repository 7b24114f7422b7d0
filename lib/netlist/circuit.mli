(** Gate-level combinational netlists.

    A circuit is built through the mutable {!builder} API and then frozen
    into an immutable {!t} that precomputes topological order, fanout and
    per-net load capacitance — everything both simulators need. *)

type net = int
(** Net identifiers are dense, starting at 0. *)

type gate_id = int

type gate_inst = {
  id : gate_id;
  kind : Gate.kind;
  inputs : net array;
  output : net;
  strength : float;
}

type t
(** A frozen circuit. *)

type builder

val builder : Device.Tech.t -> builder

val add_input : ?name:string -> builder -> net
(** Declare a primary input and return its net. *)

val add_tie : ?name:string -> builder -> bool -> net
(** A net tied to a constant logic value (e.g. the paper's grounded
    initial carry).  Ties are not part of {!inputs} and are driven
    automatically by every simulator. *)

val add_gate :
  ?name:string -> ?strength:float -> builder -> Gate.kind -> net list -> net
(** Instantiate a gate (default [strength] 1.0); returns its output net.
    @raise Invalid_argument on arity mismatch or unknown nets. *)

val mark_output : ?name:string -> builder -> net -> unit
(** Declare a primary output. *)

val add_load : builder -> net -> float -> unit
(** Attach extra lumped capacitance (e.g. the paper's 50 fF C_L) to a
    net. *)

val freeze : builder -> t
(** Validate and freeze.
    @raise Invalid_argument on combinational cycles, floating gate inputs,
    or multiply-driven nets. *)

val tech : t -> Device.Tech.t
val num_nets : t -> int
val num_gates : t -> int
val inputs : t -> net array

val pack_ints : t -> (int * int) list -> Signal.level array
(** Expand little-endian [(width, value)] groups into a flat input
    vector, consumed in the order of {!inputs}: the packing of every
    [*_ints] entry point.
    @raise Invalid_argument when the widths don't sum to the number of
    primary inputs (the message lists the widths and the input count)
    or when a value doesn't fit its width (the message names the
    offending group index). *)

val outputs : t -> net array

val ties : t -> (net * bool) array
(** Constant nets and their values. *)

val gates : t -> gate_inst array
(** In topological order (every gate appears after its drivers). *)

val gate_of_output : t -> net -> gate_inst option
(** The gate driving a net; [None] for primary inputs. *)

val fanout : t -> net -> (gate_id * int) list
(** Gates (and the pin index) reading a net. *)

val load_capacitance : t -> net -> float
(** Total lumped capacitance on a net: receiver pin caps + driver
    junction cap + wire cap per fanout + explicit extra load. *)

val net_name : t -> net -> string
(** User-assigned name, or a generated ["n<id>"]. *)

val find_net : t -> string -> net
(** @raise Not_found for unknown names. *)

val total_pulldown_wl : t -> float
(** Sum over gates of the equivalent-inverter pull-down W/L — the
    "sum of internal transistor widths" baseline estimate of §2. *)

val transistor_count : t -> int

val pp_stats : Format.formatter -> t -> unit

val with_strengths : t -> (gate_inst -> float) -> t
(** A copy of the circuit with every gate's drive strength replaced by
    [f gate]; load capacitances are recomputed (stronger receivers
    present more pin capacitance).  Topology, net ids and names are
    unchanged.
    @raise Invalid_argument on a non-positive strength. *)

val gate_depths : t -> int array
(** Topological depth of every gate (1 for gates fed only by primary
    inputs/ties), indexed by gate id. *)

val logic_depth : t -> int
(** Longest gate path from any input to any net: the largest
    {!gate_depths} entry, 0 without gates. *)

val to_dot : t -> string
(** Graphviz rendering of the gate graph (inputs as boxes, gates as
    ellipses labelled with their kind). *)
