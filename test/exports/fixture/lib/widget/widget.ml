let helper x = x + 1
let used x = helper x
let mentioned = 0
let kept = 1
let ( +! ) a b = a + b
