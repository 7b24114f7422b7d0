(** Scalar root finding used by the virtual-ground equilibrium solver and
    the sizing search. *)

exception No_bracket
(** Raised when the supplied interval does not bracket a sign change. *)

val bisect :
  ?tol:float -> ?max_iter:int -> (float -> float) -> lo:float -> hi:float ->
  float
(** [bisect f ~lo ~hi] finds [x] in [lo, hi] with [f x = 0] by bisection.
    [f lo] and [f hi] must have opposite signs (zero counts as either).
    [tol] (default 1e-12) is the absolute interval tolerance.
    @raise No_bracket when the interval does not bracket a root. *)

val newton :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> df:(float -> float) ->
  float -> float option
(** [newton ~f ~df x0] runs Newton–Raphson from [x0]; [None] when it fails
    to converge within [max_iter] (default 50) iterations or leaves the
    finite domain. *)

val brent :
  ?tol:float -> ?max_iter:int -> (float -> float) -> lo:float -> hi:float ->
  float
(** Brent's method: bisection reliability with superlinear convergence.
    Same contract as {!bisect}. *)
