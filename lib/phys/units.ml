let prefixes =
  [ (1e-18, "a"); (1e-15, "f"); (1e-12, "p"); (1e-9, "n"); (1e-6, "u");
    (1e-3, "m"); (1.0, ""); (1e3, "k"); (1e6, "M"); (1e9, "G"); (1e12, "T") ]

let to_eng_string ~unit x =
  if x = 0.0 then "0" ^ unit
  else if Float.is_nan x then "nan" ^ unit
  else if Float.abs x = Float.infinity then if x > 0.0 then "inf" else "-inf"
  else if Float.is_integer (Float.abs x) && Float.abs x >= 1e15 then
    Printf.sprintf "%.4g%s" x unit
  else
    let mag = Float.abs x in
    let rec pick = function
      | [] -> (1.0, "")
      | [ (scale, p) ] -> (scale, p)
      | (scale, p) :: rest ->
        if mag < scale *. 1000.0 then (scale, p) else pick rest
    in
    let scale, prefix = pick prefixes in
    Printf.sprintf "%.4g%s%s" (x /. scale) prefix unit
