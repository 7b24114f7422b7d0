(** Modified nodal analysis: unknown numbering, sparsity pattern and
    per-element stamp-slot precomputation.

    Unknowns are the non-ground node voltages followed by one branch
    current per voltage source.  The sparsity pattern and the slot index
    of every stamp are resolved once at {!prepare} time so the Newton
    loop performs no hashing. *)

type mos_prep = {
  params : Device.Mosfet.params;
  wl : float;
  (* unknown indices, -1 for ground *)
  ud : int;
  ug : int;
  us : int;
  ub : int;
  (* matrix slots for rows d and s crossed with columns d,g,s,b; -1 when
     either side is ground *)
  sdd : int; sdg : int; sds : int; sdb : int;
  ssd : int; ssg : int; sss : int; ssb : int;
}

type two_pin = {
  ua : int;
  ub2 : int;
  saa : int; sab : int; sba : int; sbb : int;
  value : float;  (** conductance for resistors, capacitance for caps *)
}

type vsrc_prep = {
  up : int;
  un : int;
  ubr : int;  (** branch-current unknown *)
  spb : int; snb : int; sbp : int; sbn : int;
  sbr : int;  (** the branch diagonal, where the source resistance goes *)
  wave : Phys.Pwl.t;
}

type prep =
  | P_mos of mos_prep
  | P_res of two_pin
  | P_cap of two_pin
  | P_vsrc of vsrc_prep

type system = {
  netlist : Netlist.Transistor.t;
  n_node_unknowns : int;
  n_unknowns : int;
  pattern : La.Sparse.pattern;
  symbolic : La.Sparse.symbolic;
  elems : prep array;
  caps : two_pin array;       (** the capacitor subset, for state handling *)
  tau_min : float option;
      (** fastest node RC time constant (explicit resistors/caps only),
          used to derive the default transient step *)
  gmin_slots : int array;     (** diagonal slots of the node unknowns *)
  unknown_of_node : int array
      (** node id -> unknown index; -1 for ground *);
}

val prepare : Netlist.Transistor.t -> system
(** [prepare netlist] resolves unknown numbering, the sparsity pattern
    and every stamp slot.  Node [i > 0] is unknown [i - 1]. *)
