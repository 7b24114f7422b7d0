(** Small floating-point helpers shared across the project. *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] restricts [x] to the interval [lo, hi]. *)

val linspace : float -> float -> int -> float array
(** [linspace a b n] is [n] evenly spaced points from [a] to [b]
    inclusive.  [n] must be at least 2. *)

val sum : float array -> float
(** Kahan-compensated sum. *)

