(** Engineering-notation formatting.

    All quantities in this project are plain [float]s in base SI units
    (volts, amperes, seconds, farads, ohms, metres); this module prints
    them back with an SI prefix. *)

val to_eng_string : unit:string -> float -> string
(** [to_eng_string ~unit x] prints [x] in engineering notation with 4
    significant digits, e.g. [to_eng_string ~unit:"s" 3.2e-10] is
    ["320ps"].  An infinite [x] prints as ["inf"] or ["-inf"], without
    the unit. *)
