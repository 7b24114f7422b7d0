let clamp ~lo ~hi x = if x < lo then lo else if x > hi then hi else x

let linspace a b n =
  if n < 2 then invalid_arg "Float_utils.linspace: n must be >= 2";
  let step = (b -. a) /. float_of_int (n - 1) in
  Array.init n (fun i -> a +. (float_of_int i *. step))

let sum xs =
  let total = ref 0.0 and comp = ref 0.0 in
  for i = 0 to Array.length xs - 1 do
    let y = xs.(i) -. !comp in
    let t = !total +. y in
    comp := t -. !total -. y;
    total := t
  done;
  !total

