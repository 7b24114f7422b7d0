(** Zero-delay three-valued logic evaluation of a frozen circuit.

    Used to compute expected steady-state values for any input vector, to
    pick transition directions for the timing simulators, and to count
    switching activity between consecutive vectors (§4's "how many cells
    transition" analysis). *)

type state = Signal.state
(** Indexed by net id. *)

val eval : Circuit.t -> Signal.level array -> state
(** [eval c ins] evaluates the circuit with primary inputs assigned in the
    order of [Circuit.inputs].
    @raise Invalid_argument on a length mismatch. *)

val pack_ints : Circuit.t -> (int * int) list -> Signal.level array
(** [Circuit.pack_ints], under the name the benchmark calls. *)

val eval_ints : Circuit.t -> (int * int) list -> state
(** [eval c (Circuit.pack_ints c groups)]. *)

val output_int : Circuit.t -> state -> int option

val switched_gates : Circuit.t -> state -> state -> Circuit.gate_id list
(** Gates whose steady-state output differs between two evaluations. *)

val falling_gates : Circuit.t -> state -> state -> Circuit.gate_id list
(** Gates whose output falls 1 -> 0 between the two states — exactly the
    gates that will discharge through the sleep transistor. *)

val activity : Circuit.t -> state -> state -> int
(** [List.length (switched_gates c a b)]. *)
