(** The gate library.

    Each gate kind carries its boolean function, its pin count, and an
    electrical summary ({!drive}) that collapses it to the paper's
    "equivalent inverter" (§5.2): an effective pull-down / pull-up W/L
    plus pin and output capacitances.  Transistor-level expansion
    templates live in {!Expand}. *)

type kind =
  | Inv
  | Buf
  | Nand of int
  | Nor of int
  | And of int
  | Or of int
  | Xor2
  | Xnor2
  | Aoi21  (** and-or-invert: out = NOT ((a AND b) OR c) *)
  | Oai21  (** or-and-invert: out = NOT ((a OR b) AND c) *)
  | Carry_inv  (** mirror-adder carry stage: out = NOT (majority a b c) *)
  | Sum_inv
      (** mirror-adder sum stage: inputs [a; b; c; carry_bar],
          out = NOT (a xor b xor c) *)

val arity : kind -> int
(** Number of input pins.  @raise Invalid_argument on [Nand 0] etc. *)

val name : kind -> string

val logic : kind -> Signal.level array -> Signal.level
(** Boolean function.
    @raise Invalid_argument on an arity mismatch. *)

val eval_levels : kind -> bool array -> int array -> bool
(** [eval_levels kind level pins] is {!logic} on two-valued levels: pin
    [k] reads [level.(pins.(k))] ([true] = [L1]).  Allocates nothing,
    for per-event loops.
    @raise Invalid_argument on an arity mismatch. *)

val inverting : kind -> bool
(** Whether the output inverts when a single controlling input rises.
    Used by the breakpoint simulator to orient transitions. *)

type drive = {
  wl_pull_down : float;
      (** equivalent-inverter NMOS W/L through the worst-case path *)
  wl_pull_up : float;   (** equivalent-inverter PMOS W/L *)
  cin : float;          (** input capacitance per pin, F *)
  cout_j : float;       (** junction capacitance at the output node, F *)
  n_transistors : int;  (** transistor count of the CMOS implementation *)
}

val drive : Device.Tech.t -> strength:float -> kind -> drive
(** Electrical summary for a gate of the given drive [strength] (1.0 =
    unit inverter).  Stacked devices in the templates are upsized by the
    stack depth, so the equivalent W/L equals [strength * wl_unit] for
    every kind; capacitances grow accordingly. *)

val pulldown_stack_depth : kind -> int
(** Worst-case series-NMOS depth of the template (1 for an inverter). *)

val transistor_count : kind -> int
(** Devices in the static-CMOS implementation of the gate. *)
