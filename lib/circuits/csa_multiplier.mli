(** N x N carry-save array multiplier (Braun array) — Fig. 6 of the
    paper, built from AND gates and mirror full-adder cells.  The
    critical path runs along the diagonal and the final
    carry-propagate row, as the paper notes. *)

type t = {
  circuit : Netlist.Circuit.t;
  x : Netlist.Circuit.net array;        (** multiplicand, little-endian *)
  y : Netlist.Circuit.net array;        (** multiplier, little-endian *)
  product : Netlist.Circuit.net array;  (** 2N product bits *)
}

val make : Device.Tech.t -> bits:int -> t
(** Primary inputs are ordered [x0..x_{n-1}, y0..y_{n-1}], so a vector
    packs as [eval_ints [(n, x); (n, y)]].  A 15 fF load
    sits on each product bit. *)

(** The two §4 example transitions, little-endian packed as (x, y): *)

val vector_a : (int * int) * (int * int)
(** (00,00) -> (FF,81): floods the array with simultaneous internal
    transitions (large discharge currents). *)

val vector_b : (int * int) * (int * int)
(** (7F,81) -> (FF,81): a rippling transition, few cells discharging at
    once. *)
