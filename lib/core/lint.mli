(** MTCMOS design checks — the static hygiene screens a sizing flow runs
    before simulation. *)

type severity = Info | Warning

type finding = {
  rule : string;
  severity : severity;
  message : string;
}

val check :
  ?hotspot_fraction:float ->
  Netlist.Circuit.t ->
  finding list
(** Run all rules:

    - [weak-driver]: a gate whose load exceeds 20 times a unit
      inverter's input capacitance per unit of drive strength — a slew
      hazard the Vdd/2-switching model handles poorly (§5.3's
      input-slope caveat).
    - [wide-gate]: series stacks deeper than 4 — the equivalent-inverter
      reduction degrades (§5.3's compound-gate caveat).
    - [discharge-hotspot]: over 64 random transitions, some transition
      discharges more than [hotspot_fraction] (default 0.5) of all
      gates simultaneously — expect severe virtual-ground bounce (§3's
      scenario).
    - [dangling-output]: an internal gate output with no fanout that is
      not a primary output.
    - [unused-input]: a primary input no gate reads. *)

val weak_gates : Netlist.Circuit.t -> Netlist.Circuit.gate_id list
(** The gates the [weak-driver] rule flags, in id order. *)

val pp_finding : Format.formatter -> finding -> unit
