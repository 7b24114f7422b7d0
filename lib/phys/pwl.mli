(** Piecewise-linear waveforms.

    Both simulators in this project treat node voltages as piecewise-linear
    functions of time (the paper's §5.2 models every gate output this way).
    A waveform is a non-empty sequence of [(time, value)] points with
    strictly increasing times; it is constant before the first and after
    the last point. *)

type t

val create : (float * float) list -> t
(** [create points] builds a waveform.  Points are sorted by time;
    duplicate times keep the last value.
    @raise Invalid_argument on an empty list or non-finite data. *)

val create_rev : (float * float) list -> t
(** [create_rev points] is [create (List.rev points)], built in one pass
    without sorting when [points] come newest first (no time larger
    than the one before it), as a simulator records them.
    @raise Invalid_argument on an empty list or non-finite data. *)

val constant : float -> t
(** A waveform that holds one value for all time. *)

val points : t -> (float * float) list
(** The breakpoints, in increasing time order. *)

val value_at : t -> float -> float
(** [value_at w t] linearly interpolates the waveform at time [t]. *)

val first_crossing :
  ?after:float -> t -> level:float -> rising:bool -> float option
(** [first_crossing w ~level ~rising] is the earliest time at or after
    [after] (default: start of waveform) where the waveform crosses
    [level] in the requested direction. *)

val crossings : t -> level:float -> (float * bool) list
(** All crossings of [level], each tagged [true] when rising. *)

val last_crossing : t -> level:float -> float option
(** The time of the crossing {!crossings} lists last (the latest; of
    equal times, the later segment's), found without building the
    list; [None] when nothing crosses [level]. *)

val shift : t -> float -> t
(** [shift w dt] delays the waveform by [dt]. *)

val map : (float -> float) -> t -> t
(** Pointwise transform of values (breakpoint times preserved). *)

val extrema : t -> float * float
(** [(min, max)] over all breakpoints. *)

val duration : t -> float * float
(** [(t_first, t_last)] of the breakpoints. *)

val sample : t -> t0:float -> t1:float -> n:int -> (float * float) array
(** [sample w ~t0 ~t1 ~n] evaluates the waveform at [n] evenly spaced
    times. *)

