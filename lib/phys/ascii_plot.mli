(** Terminal plots for examples and the bench harness. *)

val waveforms : ?t0:float -> ?t1:float -> (char * Pwl.t) list -> string
(** Render labelled waveforms on one 64 x 16 voltage-vs-time grid; each waveform
    is drawn with its character, later entries win collisions.  Axis
    ranges default to the union of the inputs.
    @raise Invalid_argument on an empty list. *)
