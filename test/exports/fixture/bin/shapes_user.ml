module X = Shape

let () =
  let total =
    Array.map succ [| X.aliased; Shape.(opened + 1); Facade.included |]
  in
  print_int
    (Array.fold_left ( + ) 0 total
    + Shape.scale ~offset:1 2
    + Shape.tuned ()
    + Shape.stale ~passed:3 ())
