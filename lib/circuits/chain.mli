(** Inverter chains, used by unit tests and the quickstart example. *)

type t = {
  circuit : Netlist.Circuit.t;
  input : Netlist.Circuit.net;
  taps : Netlist.Circuit.net array;  (** output of every stage *)
}

val inverter_chain : ?cl:float -> Device.Tech.t -> length:int -> t
(** A chain of [length] inverters; the final output carries [cl]
    (default 20 fF). *)
