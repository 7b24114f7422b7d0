(** Event-driven switch-level propagation over a compact integer-indexed
    netlist.

    {!Logic_sim} re-evaluates every gate of the circuit on every call —
    fine at mirror-adder scale, quadratic pain on 10k–100k-gate blocks
    where a vector step typically perturbs a few percent of the logic.
    This module flattens a frozen {!Circuit.t} once into flat [int]
    arrays (gate opcodes, fanin and fanout in CSR form, gate output
    nets) with net levels packed one byte each, and then propagates
    input changes with a worklist that only re-evaluates gates whose
    inputs actually changed.

    Because gate ids are topological (verified in {!Circuit.freeze})
    and fanout edges only point forward, the worklist is a pending
    bitset swept monotonically upward: each touched gate is evaluated
    exactly once, in topological order, so the resulting steady state
    is bit-identical to a dense {!Logic_sim.eval} of the new inputs — a
    property the differential suite re-proves on random DAGs.  The
    [touched] delta comes back in ascending gate-id order,
    which is exactly the order {!Logic_sim.switched_gates} reports, so
    activity accounting matches the dense passes list-for-list. *)

type t
(** A compiled (flattened) circuit.  Immutable; safe to share across
    domains. *)

val compile : Circuit.t -> t
(** Flatten a frozen circuit.  O(nets + pins). *)

val of_circuit : Circuit.t -> t
(** Like {!compile}, but memoized on physical identity of the circuit
    (small LRU, mutex-guarded) so hot paths — the breakpoint simulator,
    vector ranking, lint — share one compilation per circuit even when
    called from {!Par.Pool} worker domains. *)

val num_gates : t -> int
val num_nets : t -> int

type state
(** Net levels, one byte per net. *)

val init : t -> Signal.level array -> state
(** Dense evaluation from scratch: inputs, then ties, then every gate in
    topological order — the flat-array equivalent of
    {!Logic_sim.eval}, producing the identical steady state.
    @raise Invalid_argument on an input-length mismatch. *)

val level : state -> Circuit.net -> Signal.level
val levels : t -> state -> Signal.state
(** Expand to the dense [Signal.level array] view. *)

type move = {
  pre : state;
  post : state;
  touched : Circuit.gate_id list;
      (** Gates re-evaluated by the propagation, ascending. *)
}
(** One input transition: the steady states on either side plus the set
    of gates the worklist visited ([touched] is a superset of the gates
    whose output changed). *)

val step : ?obs:Obs.t -> t -> state -> Signal.level array -> move
(** [step t st ins] propagates from the steady state [st] to the new
    primary-input vector [ins].  [st] is not modified, so moves chain:
    [step t m.post ins'].  Cost is O(touched fanin + fanout), not
    O(gates).

    When [obs] (default disabled) has metrics on, each step records
    the worklist's sparsity: [event_sim.steps] / [.touched_gates]
    counters plus [.touched_per_step], [.touched_pct] (touched as a
    percentage of the gate count) and [.pending_words_per_step]
    (pending-bitset words the sweep drained) histograms.
    @raise Invalid_argument on an input-length mismatch. *)

val transition :
  t -> before:Signal.level array -> after:Signal.level array -> move
(** [init] on [before], then {!step} to [after]. *)

val switched_gates : t -> move -> Circuit.gate_id list
(** Gates whose steady output differs across the move — identical list
    (contents and order) to {!Logic_sim.switched_gates} on the two dense
    states. *)

val falling_gates : t -> move -> Circuit.gate_id list
(** Gates whose output falls 1 -> 0 across the move — the gates that
    discharge through the sleep device. *)

val activity : t -> move -> int
(** [List.length (switched_gates t m)]. *)

val changed_nets :
  t -> move -> (Circuit.net * Signal.level * Signal.level) list
(** Every net (primary inputs included) whose level differs across the
    move, with (net, pre, post), in ascending net order — the order a
    dense [for n = 0 to nets-1] scan visits them, so float
    accumulations over the list match the dense loop bit-for-bit. *)
