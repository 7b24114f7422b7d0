(** Which delay engine an evaluation runs on. *)

type t =
  | Breakpoint   (** fast switch-level breakpoint simulator *)
  | Spice_level  (** transistor-level reference (Spice bridge) *)

val to_string : t -> string
(** ["bp"] or ["spice"] — the spelling the CLI accepts. *)

val of_string : string -> (t, string) result
(** Accepts ["bp"], ["breakpoint"], ["spice"]; anything else is an
    [Error] naming the valid spellings. *)

