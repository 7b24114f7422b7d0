(** N-bit Kogge–Stone parallel-prefix adder.

    Functionally identical to {!Ripple_adder} but structurally opposite:
    log-depth and very wide, so far more gates discharge in the same
    instant — a stress case for shared-sleep-transistor sizing that the
    bench compares against the ripple structure (same function,
    different worst-case burst). *)

type t = {
  circuit : Netlist.Circuit.t;
  a : Netlist.Circuit.net array;
  b : Netlist.Circuit.net array;
  sums : Netlist.Circuit.net array;
  cout : Netlist.Circuit.net;
}

val make : Device.Tech.t -> bits:int -> t
(** Inputs ordered [a0..a_{n-1}, b0..b_{n-1}] as in {!Ripple_adder};
    a 15 fF load sits on each primary output.
    @raise Invalid_argument when [bits < 1]. *)
