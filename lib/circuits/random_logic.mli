(** Seeded random combinational DAGs — fuzzing fixtures for the
    cross-engine tests (switch-level vs logic vs transistor level). *)

type t = {
  circuit : Netlist.Circuit.t;
  inputs : Netlist.Circuit.net array;
}

val make :
  ?seed:int -> Device.Tech.t -> inputs:int -> gates:int -> t
(** A random DAG of [gates] gates drawn from
    {Inv, Nand2, Nand3, Nor2, And2, Or2, Xor2} over [inputs] primary
    inputs; every sink net is marked an output and carries 10 fF.
    Deterministic per [seed].
    @raise Invalid_argument when [inputs < 1] or [gates < 1]. *)
