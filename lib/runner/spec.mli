(** The declarative batch job-file: a set of named circuits and a list
    of jobs ([sweep], [size], [worst-vectors], [search],
    [characterize], [monte-carlo], [select]) over them, with global and per-job
    overrides of engine / worker count / Newton budget.

    Surface syntax (S-expressions, [;] comments):
    {v
    (batch
      (tech 07um)
      (defaults (engine bp) (jobs 2))
      (circuit a3 adder3)
      (job sweep s1 (circuit a3) (wls 2 10 50) (vectors "0,0->7,7"))
      (job size z1 (circuit a3) (target 0.05) (engine spice)))
    v}
    Field defaults mirror the corresponding mtsize subcommand flags;
    jobs execute in file order through one shared evaluation context
    (see {!Exec}). *)

type overrides = {
  engine : Eval.Engine.t option;
  jobs : int option;
  newton_budget : int option;
}

val no_overrides : overrides

type kind =
  | Sweep of { wls : float list; vectors : string list }
  | Size of { target : float; vectors : string list }
  | Worst_vectors of { wl : float; top : int; sample : int }
  | Search of {
      wl : float;
      objective : Mtcmos.Search.objective;
      restarts : int;
      seed : int;
      max_iters : int;
    }
  | Characterize of {
      gate : Netlist.Gate.kind;
      loads : float list option;  (** [None] = library defaults *)
      ramps : float list option;
    }
  | Monte_carlo of { wl : float; n : int; seed : int; vector : string option }
  | Select of {
      delay_budget : float;  (** allowed arrival increase, fractional *)
      clusters : int;
      objective : Mtcmos.Selective.objective;
      passes : int;  (** refinement rounds ([max_passes]) *)
    }  (** the {!Mtcmos.Selective} co-optimizer *)

type job = {
  id : string;          (** unique; [[A-Za-z0-9_.-]+] *)
  circuit : string option;  (** named circuit reference *)
  kind : kind;
  overrides : overrides;
}

type t = {
  tech : string;
  defaults : overrides;
  circuits : (string * string) list;  (** id -> {!Catalog} circuit spec *)
  jobs : job list;
}

val kind_name : kind -> string

val check : ?flag:string -> kind -> (unit, string) result
(** The range check every job passes, from a job file or a command
    line: each W/L > 0; [top], [sample], [restarts], [max-iters], [n]
    and [clusters] >= 1; [passes] >= 0; [delay-budget] >= 0.  Size's
    [target] is not checked (a negative one is the infeasible case).
    [flag] (default [""]) prefixes field names in the message, e.g.
    ["--"] to name command-line flags. *)

val check_wl : ?zero_ok:bool -> float -> (unit, string) result
(** The W/L rule {!check} applies: finite and > 0, or >= 0 with
    [zero_ok] (default [false]) where 0 means conventional CMOS.  NaN
    never passes. *)

val check_overrides : ?flag:string -> overrides -> (unit, string) result
(** [jobs] >= 1 and [newton-budget] >= 0, same message style. *)

val parse_string : string -> (t, string) result
val parse_file : string -> (t, string) result

val fingerprint : t -> string
(** Hex digest of {!to_canonical} — stamped into the journal and the
    manifest so a stale checkpoint is never replayed against an edited
    job file. *)
