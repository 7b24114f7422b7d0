(** Gate-level to transistor-level expansion.

    Every gate becomes one or more static-CMOS stages (complementary
    series-parallel networks); the mirror-adder stages use the self-dual
    topology of Weste & Eshraghian (ref [11] of the paper), giving the
    28-transistor full adder the paper's 3-bit adder is built from.

    With MTCMOS enabled, every stage's NMOS network returns to a shared
    {e virtual ground} rail which reaches the real ground through a
    high-Vt sleep transistor (Fig. 1); low-to-high pull-ups connect to
    Vdd directly, so only falling outputs are affected (§2.1). *)

type config = {
  sleep_wl : float option;
      (** [Some wl]: insert the sleep device of that size and route all
          pulldowns via the virtual ground.  [None]: conventional CMOS. *)
  cx_extra : float;
      (** Extra parasitic capacitance on the virtual ground (§2.2 sweep),
          in farads.  Default 0. *)
  resistor_model : float option;
      (** [Some r] replaces the sleep transistor with an ideal resistor —
          the finite-resistance approximation of Fig. 2, kept as an
          ablation. *)
  pmos_header : bool;
      (** gate the pull-ups through a PMOS header and a virtual Vdd
          instead of the NMOS footer (the paper's §1 alternative). *)
}

val default : config
(** Conventional CMOS: no sleep device. *)

val mtcmos : wl:float -> config
(** Active-mode MTCMOS with an NMOS footer of the given W/L. *)

type instance = {
  netlist : Transistor.t;
  node_of_net : Transistor.node array;
      (** Circuit net id -> transistor node id. *)
  vdd_node : Transistor.node;
  vground : Transistor.node option;
      (** The virtual rail when MTCMOS is enabled (a virtual ground, or
          the virtual Vdd under [pmos_header]). *)
}

val expand :
  ?config:config ->
  Circuit.t ->
  stimuli:(Circuit.net * Phys.Pwl.t) list ->
  instance
(** Expand a frozen circuit.  Every primary input must appear in
    [stimuli] (a PWL voltage waveform); the Vdd rail and, in MTCMOS mode,
    the sleep gate are sourced automatically.
    @raise Invalid_argument for a stimulus on a non-input net or a
    missing input stimulus. *)
