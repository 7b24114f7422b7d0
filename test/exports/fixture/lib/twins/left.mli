(* Export-check fixture: [report] is exported here and by [Right] and
   called by neither; each one's definition and declaration must not
   count as a caller of the other. *)

val report : unit -> string
