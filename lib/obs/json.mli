(** Minimal JSON reader: the trace validator reads trace files with it,
    and the serve client reads the daemon's event lines.  Strings decode
    the standard escapes; a [\u] escape above ASCII becomes ['?']. *)

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
