(** NLDM-style table timing: per-kind (load, input-slew) lookup tables
    characterised against the transistor-level engine, with bilinear
    interpolation, plus a slew-propagating static timer built on them.

    This is the "better compound gate models" + "input slope" upgrade of
    §5.3 packaged the way standard-cell flows consume it. *)

type table
(** Delay and output-slew surfaces for one gate kind. *)

type library
(** Tables for a set of gate kinds under one technology. *)

val characterize :
  ?loads:float list ->
  ?ramps:float list ->
  Device.Tech.t ->
  Netlist.Gate.kind list ->
  library
(** Run the transistor-level fixtures over the grid (defaults: loads
    10/30/80 fF, ramps 20/80/200 ps).  Expensive — seconds per kind. *)

val delay :
  library -> Netlist.Gate.kind -> cl:float -> slew_in:float -> float
(** Worst of rise/fall delay at the operating point, bilinear between
    grid points and clamped outside the grid.
    @raise Not_found for an uncharacterised kind. *)

type timing = {
  arrival : float array;  (** per net *)
  slew : float array;     (** per net, 10–90 % transition time *)
  critical : Netlist.Circuit.net * float;
}

val sta :
  ?input_slew:float -> library -> Netlist.Circuit.t -> timing
(** Slew-propagating topological timing (default primary-input slew
    50 ps): {!Sta.propagate} and {!Sta.worst_output} with table delays,
    each gate looked up at its worst input slew.  Strength scales tables
    linearly: an S-strength gate sees [cl / S] and drives with the
    unit-gate slew at that effective load.
    @raise Not_found when the circuit uses an uncharacterised kind.
    @raise Invalid_argument when the circuit has no outputs. *)
