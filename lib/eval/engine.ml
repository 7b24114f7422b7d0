type t = Breakpoint | Spice_level

let to_string = function Breakpoint -> "bp" | Spice_level -> "spice"

let of_string s =
  match String.lowercase_ascii s with
  | "bp" | "breakpoint" -> Ok Breakpoint
  | "spice" -> Ok Spice_level
  | other ->
    Error
      (Printf.sprintf "unknown engine %S (expected \"bp\" or \"spice\")" other)

