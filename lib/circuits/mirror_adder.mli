(** The 28-transistor "mirror adder" full-adder cell (Weste &
    Eshraghian, ref [11]): a carry stage, a sum stage and two output
    inverters.  The building block of the paper's 3-bit ripple adder
    (Fig. 12) and of the carry-save multiplier (Fig. 6). *)

type outputs = {
  sum : Netlist.Circuit.net;
  cout : Netlist.Circuit.net;
  sum_bar : Netlist.Circuit.net;   (** internal: output of the sum stage *)
  cout_bar : Netlist.Circuit.net;  (** internal: output of the carry stage *)
}

val add_cell :
  ?name:string ->
  Netlist.Circuit.builder ->
  a:Netlist.Circuit.net ->
  b:Netlist.Circuit.net ->
  cin:Netlist.Circuit.net ->
  outputs
(** Instantiate one cell into an open builder. *)
