(** Minimal JSON reader and the two token writers every emitter shares.

    The trace validator reads trace files with the reader, and the
    serve client reads the daemon's event lines.  Strings decode the
    standard escapes; a [\u] escape above ASCII becomes ['?'].  Traces,
    metrics dumps and the runner's manifests write strings with
    {!escape}; traces and metrics write floats with {!number}. *)

type t =
  | J_obj of (string * t) list  (** members in document order *)
  | J_arr of t list
  | J_str of string
  | J_num of float
  | J_bool of bool
  | J_null

exception Parse of string
(** The reason and byte offset of the first syntax error. *)

val parse : string -> t
(** One JSON value, optionally surrounded by whitespace.
    @raise Parse on anything else. *)

val field : string -> t -> t option
(** An object's first member of that name; [None] on a missing member
    or a non-object. *)

val num_field : string -> t -> float option
val str_field : string -> t -> string option
(** {!field}, when the member is a number (a string). *)

val escape : string -> string
(** The body of a JSON string literal, without the quotes: a double
    quote, a backslash, newline, tab and return become two-character
    escapes, other control bytes [\u00XX], every other byte stays. *)

val number : float -> string
(** A JSON number token: ["%g"] when it reads back as the same float,
    else ["%.17g"]; ["null"] when the float is not finite. *)
