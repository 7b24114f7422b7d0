(* Export-check fixture: one export called from bin/, one only its own
   module uses, one named elsewhere only in a comment, a string and a
   label, and one kept by the fixture's allowlist.  An operator is not
   a name and is not checked. *)

val used : int -> int
val helper : int -> int
val mentioned : int
val kept : int
val ( +! ) : int -> int -> int
