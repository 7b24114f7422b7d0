(** Delay and waveform measurements shared by the experiment harness. *)

val propagation_delay :
  vin:Phys.Pwl.t ->
  vout:Phys.Pwl.t ->
  vdd:float ->
  in_rising:bool ->
  out_rising:bool ->
  float option
(** 50 %-to-50 % propagation delay between the input edge and the
    {e last} matching output crossing (glitches before the final
    settling are skipped, as the paper does when quoting a single
    delay per transition). *)

val net_delay : Phys.Pwl.t -> vdd:float -> t_start:float -> float option
(** Delay of one net's transition: the {e last} [vdd / 2] crossing at or
    after [t_start], minus [t_start]; [None] when the net never crosses
    there.  The one delay definition both the breakpoint simulator and
    the transistor-level reference report (§5.2). *)

val critical_delay :
  int array -> (int -> float option) -> (int * float) option
(** [critical_delay outputs delay]: the output with the largest [delay]
    (the first one on ties), or [None] when no output switches. *)
