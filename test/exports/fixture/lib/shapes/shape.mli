(* Export-check fixture: [map] is named elsewhere only as [Array.map],
   which is no use of it; [aliased], [opened] and [included] are used
   through a module alias, a local open and a module that includes this
   one.  [scale]'s [?factor] is passed by no caller, its [?offset] is;
   [tuned]'s [?knob] is kept by the allowlist, and the allowlist entry
   for [stale]'s [?passed] is stale. *)

val map : int -> int
val aliased : int
val opened : int
val included : int
val scale : ?factor:int -> ?offset:int -> int -> int
val tuned : ?knob:int -> unit -> int
val stale : ?passed:int -> unit -> int
