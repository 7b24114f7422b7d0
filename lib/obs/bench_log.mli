(** Reader for the [BENCH_<experiment>.json] history files that
    [bench <experiment> record] appends to and [mtsize bench-history]
    renders.  Each line is one self-emitted JSON object,
    {v
{"experiment":"speed","sub":"rc-ladder","ratio":8.1,"floor":5.000,"at":1760000000}
    v}
    and the format is fixed, so a field scan is enough. *)

type entry = {
  sub : string option;  (** the gated measurement's name *)
  ratio : float option;  (** the recorded ratio *)
  at : float option;  (** Unix time of the recording *)
}

val entry : string -> entry
(** Scan one line; a missing or malformed field is [None]. *)

val read : string -> entry list
(** Every non-blank line of a history file, in file order.
    @raise Sys_error when the file cannot be read. *)

val baseline : entry list -> string option -> float option
(** The first recorded ratio of a measurement: the value every later
    entry is compared against. *)
