(** Structured convergence diagnostics.

    Every analysis in {!Engine} either returns a result or a {!failure}
    value describing what went wrong and what was tried; alongside it a
    {!telemetry} record accumulates solver-effort counters so sweeps can
    report where the time and the rescues went. *)

type analysis = Dc | Transient

type failure_kind =
  | Singular_matrix    (** LU hit a non-finite pivot *)
  | Newton_divergence  (** iteration budget exhausted *)
  | Nan_in_solution    (** a trial solution went non-finite *)
  | Step_underflow     (** transient step halving hit its floor *)

type failure = {
  analysis : analysis;
  kind : failure_kind;
  time : float;                      (** time of the failing solve *)
  last_good_time : float;            (** last accepted point (0 for DC) *)
  worst_residual_node : string option;
      (** node with the largest KCL residual at the final trial point *)
  worst_residual : float;
  newton_iterations : int;           (** spent across the whole analysis *)
  recovery_attempts : string list;   (** strategies tried, in order *)
  message : string;
}

type telemetry = {
  mutable newton_iterations : int;
  mutable factorizations : int;
  mutable step_rejections : int;
  mutable gmin_rounds : int;
  mutable recoveries : (string * int) list;
      (** strategy name -> times it rescued an analysis or a step *)
  mutable wall_s : float;
      (** monotonic wall-clock seconds inside the engine, measured with
          [Obs.Clock]. *)
}

val create_telemetry : unit -> telemetry

val record_recovery : telemetry -> string -> unit

val recovered : telemetry -> bool
(** True when at least one recovery strategy fired. *)

val pp_failure : Format.formatter -> failure -> unit
val failure_to_string : failure -> string
