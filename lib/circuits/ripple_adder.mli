(** N-bit ripple-carry adder built from mirror full-adder cells — the
    paper's exhaustively simulated 3-bit example (Fig. 12, §6.2). *)

type t = {
  circuit : Netlist.Circuit.t;
  a : Netlist.Circuit.net array;      (** little-endian input A *)
  b : Netlist.Circuit.net array;      (** little-endian input B *)
  sums : Netlist.Circuit.net array;   (** sum bits S0..S{n-1} *)
  cout : Netlist.Circuit.net;
}

val make : Device.Tech.t -> bits:int -> t
(** The initial carry is tied to ground as in the paper.  A 15 fF load
    sits on each primary output.  Primary inputs are ordered
    [a0..a_{n-1}, b0..b_{n-1}] so a vector pair packs into
    [eval_ints [(n, a); (n, b)]]. *)
