(* Export-check fixture: the twin of [Left]. *)

val report : unit -> string
