(* Recovery-policy ladder for the engine.

   The engine interprets a [policy]: on a failed solve it walks the
   relevant strategy list in order, each strategy bounded by the budgets
   below, so no input can loop forever.  The policy is plain data; the
   mechanics live in [Engine]. *)

type strategy =
  | Shrink_step        (* halve dt, up to [max_step_halvings] times *)
  | Gmin_ramp          (* ramp gmin down from a large value, warm-starting *)
  | Source_step        (* ramp every source from zero (DC) *)
  | Warm_start_dc      (* re-seed a stuck step from a fresh DC solution *)

let strategy_name = function
  | Shrink_step -> "shrink-step"
  | Gmin_ramp -> "gmin-ramp"
  | Source_step -> "source-step"
  | Warm_start_dc -> "warm-start-dc"

type policy = {
  dc_strategies : strategy list;
  transient_strategies : strategy list;
  direct_max_iter : int;
  ladder_max_iter : int;
  gmin_start : float;
  transient_gmin_start : float;
  source_steps : int;
  max_step_halvings : int;
}

let default =
  { dc_strategies = [ Gmin_ramp; Source_step ];
    transient_strategies = [ Shrink_step; Gmin_ramp; Warm_start_dc ];
    direct_max_iter = 150;
    ladder_max_iter = 200;
    gmin_start = 1e-3;
    transient_gmin_start = 1e-6;
    source_steps = 10;
    max_step_halvings = 14 }

let strict =
  { default with dc_strategies = []; transient_strategies = [] }

let with_newton_budget n p =
  if n <= 0 then invalid_arg "Recover.with_newton_budget: n <= 0";
  { p with direct_max_iter = n; ladder_max_iter = n }
