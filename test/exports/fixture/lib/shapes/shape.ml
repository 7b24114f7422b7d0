let map x = x + 1
let aliased = 1
let opened = 2
let included = 3
let scale ?(factor = 1) ?(offset = 0) x = (factor * x) + offset
let tuned ?(knob = 0) () = knob
let stale ?(passed = 0) () = passed
