(** Monte-Carlo process-variation analysis.

    Die-to-die variation moves the whole card's thresholds and
    transconductance together; the sleep device's overdrive
    [vdd - vt_high] is small, so its effective resistance is unusually
    sensitive to vt shifts — a margin the paper-era flows sized by
    hand.

    [monte_carlo] takes [?ctx:Eval.Ctx.t] for the worker count and the
    evaluation cache; each sample's breakpoint simulation is cached
    under its shifted technology card ([tech_override] is part of the
    key), so re-running the same study — or overlapping studies — hits.
    The engine field of the context is ignored: the MC is
    switch-level by construction. *)

type sample = {
  dvt : float;        (** threshold shift applied to every device, V *)
  dkp_rel : float;    (** relative transconductance shift *)
  delay : float;      (** MTCMOS critical delay for the vector *)
  vx_peak : float;
}

type stats = {
  samples : sample array;
  delay_summary : Phys.Stats.summary;
  vx_summary : Phys.Stats.summary;
  degradation_p95 : float;
      (** 95th-percentile degradation vs the {e nominal} CMOS delay *)
}

val monte_carlo :
  ?ctx:Eval.Ctx.t ->
  ?seed:int ->
  n:int ->
  Netlist.Circuit.t ->
  wl:float ->
  vector:Sizing.vector_pair ->
  stats
(** [n] samples with Gaussian die-to-die shifts (sigma 20 mV on Vt,
    5 % on kp).  The circuit's own technology card is the nominal.
    The parameter shifts are presampled sequentially from the seeded
    stream before the simulations fan out over [jobs] (default 1)
    domains, so the statistics are identical whatever [jobs] is — and
    whatever the cache holds.
    @raise Invalid_argument when [n < 1]. *)
