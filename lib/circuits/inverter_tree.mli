(** The clock-distribution inverter tree of Fig. 4: one input inverter
    fanning out through [stages] levels with branching factor [fanout],
    each leaf loaded by an explicit capacitance.

    This is the paper's canonical demonstration that many simultaneously
    discharging gates bounce the shared virtual ground: on an input
    0 -> 1 transition all gates of every odd stage discharge at once. *)

type t = {
  circuit : Netlist.Circuit.t;
  input : Netlist.Circuit.net;
  stage_nets : Netlist.Circuit.net array array;
      (** [stage_nets.(i)] = output nets of stage [i] (0-based). *)
}

val make :
  ?strength:float -> Device.Tech.t -> stages:int ->
  fanout:int -> t
(** [make tech ~stages ~fanout] builds the tree.  A 50 fF load
    (the Fig. 4 value) sits on every leaf output; [strength] (default
    1) scales every inverter.
    @raise Invalid_argument when [stages < 1] or [fanout < 1]. *)

val leaf_net : t -> Netlist.Circuit.net
(** A representative leaf output (the paper plots one of the nine). *)
