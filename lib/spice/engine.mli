(** DC and transient analysis — the repo's SPICE substitute.

    Newton–Raphson over the MNA system with per-step voltage limiting,
    Backward-Euler integration, and a fixed two-rung recovery ladder for
    hard solves: a failed DC solve is retried by gmin stepping, a
    rejected transient step by step halving.

    Analysis knobs live in a typed options record, {!Opts.t}, set once
    at {!prepare}; {!dc_r} and {!transient_r} take none.  The [fast]
    option selects the fast transient path: [`Reduce_bypass] skips
    model re-evaluation for quiescent transistors and drives the time
    step with a local-truncation-error controller.  [`Off] (the default)
    is bit-identical to the historical engine.

    Each analysis ({!dc_r}, {!transient_r}) returns [Ok result] or a
    structured [Error Diag.failure]. *)

exception No_convergence of string
(** Raised with the rendered [Diag.failure] by callers that cannot
    recover from one. *)

type record = All | Nodes of Netlist.Transistor.node list

(** Typed analysis options.  Build with {!Opts.default} and the
    [with_*] combinators:
    {[
      Engine.Opts.(default |> with_fast `Reduce_bypass |> with_dt 2e-12)
    ]} *)
module Opts : sig
  type fast = [ `Off | `Reduce_bypass ]
  (** Fast transient path.  [`Off]: historical engine, bit-identical
      results.  [`Reduce_bypass]: quiescent-device stamp bypass and
      LTE-controlled stepping — results within calibrated tolerance
      bands of [`Off].  (The name is kept from when it also reduced
      series-RC chains; no deck the tool builds has one.) *)

  type t = {
    dt : float option;
        (** nominal transient step; [None] derives it from [t_stop] and
            the fastest explicit RC time constant *)
    record : record;            (** default [All] *)
    uic : bool;                 (** skip the initial DC solve *)
    fast : fast;                (** default [`Off] *)
    newton_budget : int option;
        (** [Some n] caps the DC direct solve and each gmin-ramp rung at
            [n] Newton iterations; default [None], the engine's own
            budgets (150 direct, 200 per rung).  Nominal transient steps
            and step-halving retries always keep 40.  {!prepare} rejects
            [n <= 0]. *)
  }

  val default : t

  val with_dt : float -> t -> t
  val with_record : record -> t -> t
  val with_uic : bool -> t -> t
  val with_fast : fast -> t -> t
  val with_newton_budget : int option -> t -> t

  val fast_of_string : string -> (fast, string) result
  (** Parse ["off"] or ["reduce-bypass"]. *)
end

type t
(** A prepared simulation context (pattern, symbolic LU, stamp slots
    and the device-bypass cache). *)

val prepare : ?opts:Opts.t -> Netlist.Transistor.t -> t
(** [prepare ?opts netlist] resolves the MNA structure once and fixes
    the options of every analysis run on the context: the fast path,
    the transient grid, the recorded nodes, the initial condition and
    the Newton budget.
    @raise Invalid_argument when [newton_budget] is [Some n], [n <= 0]. *)

val system : t -> Mna.system

val default_dt : t -> t_stop:float -> float
(** The step used when [Opts.dt] is [None]: [t_stop /. 2000.], refined
    downward to half the fastest explicit RC time constant of the deck
    (never below [t_stop /. 50000.]), so a slow analysis window cannot
    silently under-resolve a fast node. *)

val dc_r :
  ?x0:float array ->
  ?telemetry:Diag.telemetry ->
  ?obs:Obs.t ->
  t ->
  (float array, Diag.failure) result
(** Operating point with the sources evaluated at time 0.
    [x0] seeds the Newton iteration (see {!initial_guess}) and also
    warm-starts the recovery ladder: when the direct solve fails, a gmin
    ramp from 1e-3 S walks down a decade per rung to the 1e-12 S floor,
    each rung warm-started from the last; a failed rung is the analysis
    failure.
    [telemetry] (optional,
    caller-owned) accumulates effort counters across calls.  [obs]
    (default [Obs.disabled]) records a ["spice.dc"] span carrying the
    analysis's Newton/factorization deltas as args, and flushes the
    telemetry deltas once per analysis into the registry
    ([spice.dc.analyses], [spice.newton_iterations], ... and the
    [spice.newton_per_analysis] histogram). *)

val initial_guess :
  t -> (Netlist.Transistor.node * float) list -> float array
(** Build a DC seed vector from per-node voltage hints (e.g. the
    logic-simulator steady state). *)

val voltage : t -> float array -> Netlist.Transistor.node -> float
(** Read a node voltage from a solution vector (0 for ground). *)

type result

val transient_r :
  ?x0:float array ->
  ?telemetry:Diag.telemetry ->
  ?obs:Obs.t ->
  t ->
  t_stop:float ->
  (result, Diag.failure) Stdlib.result
(** Simulate from a [dc_r] initial condition at [t = 0] to [t_stop].

    [Opts.dt] defaults to {!default_dt}; [x0] seeds the DC solve.  With
    [Opts.uic] (default false) the DC solve is skipped entirely and [x0] is
    taken as the initial state — the integrator settles any
    inconsistency within a few steps, which is how very large blocks
    whose cold DC diverges are simulated.  Every step is the nominal
    [dt] except under [`Reduce_bypass], where a local-truncation-error
    controller drives it in [dt/16, 64*dt], clamped so it never strides
    across a source-waveform breakpoint.  Only recorded nodes (default
    [All]) can be read back with {!waveform}.

    A rejected step is retried at half the step, up to 14 successive
    halvings, so every run terminates with either [Ok] — whose waveforms
    contain only finite samples — or a structured [Error].

    [obs] records a ["spice.transient"] span (the nested
    operating-point solve appears as a ["spice.dc"] child span, with
    counter flushing suppressed so solver effort is attributed exactly
    once, to the enclosing transient).
    @raise Invalid_argument on [t_stop <= 0], [dt <= 0] or
    [dt > t_stop]. *)

val waveform : result -> Netlist.Transistor.node -> Phys.Pwl.t
(** Samples of a recorded node.
    @raise Not_found for a node that was not recorded. *)

val final_solution : result -> float array
val newton_iterations : result -> int
(** Newton iterations spent by this run (performance accounting). *)

val telemetry : result -> Diag.telemetry
(** The telemetry record the run accumulated into (the caller-supplied
    one when given, otherwise a fresh per-run record). *)
