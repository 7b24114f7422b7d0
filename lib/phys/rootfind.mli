(** Scalar root finding used by the virtual-ground equilibrium solver and
    the sizing search. *)

exception No_bracket
(** Raised when the supplied interval does not bracket a sign change. *)

val bisect : (float -> float) -> lo:float -> hi:float -> float
(** [bisect f ~lo ~hi] finds [x] in [lo, hi] with [f x = 0] by bisection.
    [f lo] and [f hi] must have opposite signs (zero counts as either).
    It stops when the interval is 1e-12 wide, or after 200 halvings.
    @raise No_bracket when the interval does not bracket a root. *)

val brent : ?tol:float -> (float -> float) -> lo:float -> hi:float -> float
(** Brent's method: bisection reliability with superlinear convergence.
    Same contract as {!bisect}, but [tol] (default 1e-14) is the
    interval tolerance. *)
