(** Reverse-conduction analysis (§2.3).

    When the virtual ground bounces to [vx], gates holding a logic low
    conduct backwards through their on pulldowns: their outputs ride up
    to [vx], noise margins shrink, and in the extreme the circuit fails
    logically.  The compensating effects — part of the discharge current
    bypassing the sleep device, and low outputs being precharged for the
    next rising edge — make MTCMOS slightly faster than the
    all-through-the-sleep-device model predicts. *)

type assessment = {
  v_low : float;
      (** voltage a nominally-low output is pinned at (= vx) *)
  nm_low_remaining : float;
      (** remaining low-side noise margin [vt_n - vx]; negative means
          receivers start conducting *)
  precharge_speedup : float;
      (** fraction of a low-to-high swing already covered, [vx / vdd] *)
  logic_failure : bool;
      (** [vx >= vdd / 2]: lows read as highs downstream *)
}

val assess : Device.Tech.t -> vx:float -> assessment
