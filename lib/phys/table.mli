(** Tabular experiment reporting: CSV files and waveform dumps for
    external plotting. *)

type t

val create : columns:string list -> t
(** @raise Invalid_argument on an empty column list. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument on a width mismatch. *)

val add_floats : t -> float list -> unit
(** Row of numbers, each printed with ["%.6g"]. *)

val to_csv : t -> string
(** RFC-4180-ish: fields with commas/quotes/newlines are quoted. *)

val write_csv : t -> path:string -> unit

val waveform_csv : (string * Pwl.t) list -> t0:float -> t1:float -> n:int -> t
(** Sample named waveforms onto a shared time grid, one column each
    (plus a leading [t] column).
    @raise Invalid_argument on an empty list. *)
