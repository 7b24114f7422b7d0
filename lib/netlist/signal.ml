type level = L0 | L1 | X
type state = level array

let of_bool b = if b then L1 else L0
let lnot = function L0 -> L1 | L1 -> L0 | X -> X

let land_ a b =
  match (a, b) with
  | L0, _ | _, L0 -> L0
  | L1, L1 -> L1
  | X, (L1 | X) | L1, X -> X

let lor_ a b =
  match (a, b) with
  | L1, _ | _, L1 -> L1
  | L0, L0 -> L0
  | X, (L0 | X) | L0, X -> X

let lxor_ a b =
  match (a, b) with
  | X, (L0 | L1 | X) | (L0 | L1), X -> X
  | L0, L0 | L1, L1 -> L0
  | L0, L1 | L1, L0 -> L1

let all = List.fold_left land_ L1
let any = List.fold_left lor_ L0
let parity = List.fold_left lxor_ L0

let majority3 a b c =
  match (a, b, c) with
  | L1, L1, _ | L1, _, L1 | _, L1, L1 -> L1
  | L0, L0, _ | L0, _, L0 | _, L0, L0 -> L0
  | (X | L0 | L1), (X | L0 | L1), (X | L0 | L1) -> X

let equal a b =
  match (a, b) with
  | L0, L0 | L1, L1 | X, X -> true
  | (L0 | L1 | X), (L0 | L1 | X) -> false

let to_char = function L0 -> '0' | L1 -> '1' | X -> 'x'

let bits_of_int ~width v =
  if v < 0 then invalid_arg "Signal.bits_of_int: negative";
  if width < 0 || (width < Sys.int_size - 1 && v lsr width <> 0) then
    invalid_arg "Signal.bits_of_int: value does not fit";
  Array.init width (fun i -> of_bool ((v lsr i) land 1 = 1))

let int_of_bits bits =
  let n = Array.length bits in
  let rec go i acc =
    if i >= n then Some acc
    else
      match bits.(i) with
      | L1 -> go (i + 1) (acc lor (1 lsl i))
      | L0 -> go (i + 1) acc
      | X -> None
  in
  go 0 0
