(** Three-valued logic levels used by the gate-level simulator. *)

type level = L0 | L1 | X

type state = level array
(** A circuit's net levels, indexed by net id. *)

val of_bool : bool -> level
val lnot : level -> level
val land_ : level -> level -> level
val lor_ : level -> level -> level
val lxor_ : level -> level -> level
val all : level list -> level
(** N-ary AND. *)

val any : level list -> level
(** N-ary OR. *)

val parity : level list -> level
(** N-ary XOR. *)

val majority3 : level -> level -> level -> level
(** Majority of three (the full-adder carry function); [X]-aware: the
    result is known whenever two inputs agree on a value. *)

val equal : level -> level -> bool
val to_char : level -> char
val bits_of_int : width:int -> int -> level array
(** [bits_of_int ~width v] is the little-endian bit vector of [v]
    (index 0 = LSB).  @raise Invalid_argument when [v] needs more than
    [width] bits or is negative. *)

val int_of_bits : level array -> int option
(** Little-endian reassembly; [None] when any bit is [X]. *)
