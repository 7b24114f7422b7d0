(* Structured convergence diagnostics for the engine.

   A failed analysis is described by a [failure] value instead of a bare
   exception string; a running analysis accumulates a [telemetry] record
   (iteration/factorisation/rejection counts and which recovery
   strategies fired) that survives the run for reporting. *)

type analysis = Dc | Transient

type failure_kind =
  | Singular_matrix    (* LU hit a non-finite pivot *)
  | Newton_divergence  (* iteration budget exhausted, deltas still large *)
  | Nan_in_solution    (* a trial solution went non-finite *)
  | Step_underflow     (* transient step halving hit its floor *)

type failure = {
  analysis : analysis;
  kind : failure_kind;
  time : float;                      (* time of the failing solve *)
  last_good_time : float;            (* last accepted point (0 for DC) *)
  worst_residual_node : string option;
  worst_residual : float;            (* |F| at that node, trial point *)
  newton_iterations : int;           (* spent across the whole analysis *)
  recovery_attempts : string list;   (* strategies tried, in order *)
  message : string;
}

type telemetry = {
  mutable newton_iterations : int;
  mutable factorizations : int;
  mutable step_rejections : int;     (* transient step attempts rejected *)
  mutable gmin_rounds : int;         (* gmin-ramp ladder solves *)
  mutable recoveries : (string * int) list;
      (* strategy name -> times it rescued an analysis or a step *)
  mutable wall_s : float;
      (* monotonic wall-clock seconds inside the engine (Obs.Clock) *)
}

let create_telemetry () =
  { newton_iterations = 0;
    factorizations = 0;
    step_rejections = 0;
    gmin_rounds = 0;
    recoveries = [];
    wall_s = 0.0 }

let record_recovery tm name =
  let rec bump = function
    | [] -> [ (name, 1) ]
    | (n, k) :: rest when n = name -> (n, k + 1) :: rest
    | p :: rest -> p :: bump rest
  in
  tm.recoveries <- bump tm.recoveries

let recovered tm = tm.recoveries <> []

let analysis_name = function Dc -> "dc" | Transient -> "transient"

let kind_name = function
  | Singular_matrix -> "singular matrix"
  | Newton_divergence -> "Newton divergence"
  | Nan_in_solution -> "non-finite solution"
  | Step_underflow -> "time-step underflow"

let pp_failure fmt f =
  Format.fprintf fmt "%s: %s at t=%s" (analysis_name f.analysis)
    (kind_name f.kind)
    (Phys.Units.to_eng_string ~unit:"s" f.time);
  if f.analysis = Transient then
    Format.fprintf fmt " (last good t=%s)"
      (Phys.Units.to_eng_string ~unit:"s" f.last_good_time);
  (match f.worst_residual_node with
   | Some n ->
     Format.fprintf fmt "; worst residual %.3g at node %s" f.worst_residual n
   | None -> ());
  Format.fprintf fmt "; %d Newton iterations" f.newton_iterations;
  (match f.recovery_attempts with
   | [] -> ()
   | l -> Format.fprintf fmt "; tried %s" (String.concat ", " l));
  if f.message <> "" then Format.fprintf fmt " [%s]" f.message

let failure_to_string f = Format.asprintf "%a" pp_failure f
