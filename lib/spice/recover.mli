(** Explicit, configurable recovery-policy ladder for {!Engine}.

    A policy names which strategies an analysis may try when a solve
    fails, in order, and bounds each with retry/iteration budgets so no
    input can loop forever.  DC analyses use [dc_strategies]
    ({!Gmin_ramp}, {!Source_step}); transients use
    [transient_strategies] ({!Shrink_step}, {!Gmin_ramp},
    {!Warm_start_dc}).  Strategies that do not apply to an
    analysis kind are skipped. *)

type strategy =
  | Shrink_step        (** halve dt, up to [max_step_halvings] times *)
  | Gmin_ramp          (** ramp gmin down from a large value, warm-starting *)
  | Source_step        (** ramp every source from zero (DC only) *)
  | Warm_start_dc      (** re-seed a stuck step from a fresh DC solution *)

val strategy_name : strategy -> string

type policy = {
  dc_strategies : strategy list;
  transient_strategies : strategy list;
  direct_max_iter : int;
      (** Newton budget for the first, unassisted DC solve (a
          transient's own operating point included) *)
  ladder_max_iter : int;
      (** Newton budget per recovery-ladder solve: each gmin rung,
          source step and re-seeded step.  Nominal transient steps and
          step-halving retries are not covered by either budget; they
          keep the engine's fixed 40 iterations. *)
  gmin_start : float;         (** DC gmin-ladder entry conductance; the
                                  ladder walks down a decade per rung to
                                  the engine's floor of 1e-12 *)
  transient_gmin_start : float; (** gmin-ladder entry for a stuck step *)
  source_steps : int;         (** source-stepping ramp resolution *)
  max_step_halvings : int;    (** transient step-halving depth *)
}

val default : policy

val strict : policy
(** No recovery at all: the first failed solve is the analysis failure.
    Useful for pinning down which strategy a deck needs. *)

val with_newton_budget : int -> policy -> policy
(** Set both [direct_max_iter] and [ladder_max_iter] to [n]: the Newton
    budget of the DC direct solve and of every recovery-ladder solve.
    Nominal transient steps and step-halving retries keep the engine's
    fixed 40 iterations.  The production knob for bounding solver
    effort per analysis.
    @raise Invalid_argument when [n <= 0]. *)
