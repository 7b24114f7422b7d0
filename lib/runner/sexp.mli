(** Minimal S-expression reader for the batch job-file language.

    Atoms are bare words or double-quoted strings; [;] comments run to
    end of line.  The tree carries no positions, so two spellings of
    the same file render to the same canonical string. *)

type t =
  | Atom of string
  | List of t list

val parse_string : string -> (t list, string) result
(** All top-level forms, or an error naming the offending line —
    ["line 3: msg"]. *)

val parse_file : string -> (t list, string) result
(** Like {!parse_string} with [~file:path]: parse errors read
    ["path:3: msg"], so editors and CI logs can jump straight to the
    offending line of the job file. *)

val to_string : t -> string
(** Canonical single-line rendering (used for fingerprinting). *)
