type kind =
  | Inv
  | Buf
  | Nand of int
  | Nor of int
  | And of int
  | Or of int
  | Xor2
  | Xnor2
  | Aoi21
  | Oai21
  | Carry_inv
  | Sum_inv

let check_n name n =
  if n < 1 then invalid_arg (Printf.sprintf "Gate.%s: arity < 1" name)

let arity = function
  | Inv | Buf -> 1
  | Nand n -> check_n "Nand" n; n
  | Nor n -> check_n "Nor" n; n
  | And n -> check_n "And" n; n
  | Or n -> check_n "Or" n; n
  | Xor2 | Xnor2 -> 2
  | Aoi21 | Oai21 -> 3
  | Carry_inv -> 3
  | Sum_inv -> 4

let name = function
  | Inv -> "inv"
  | Buf -> "buf"
  | Nand n -> Printf.sprintf "nand%d" n
  | Nor n -> Printf.sprintf "nor%d" n
  | And n -> Printf.sprintf "and%d" n
  | Or n -> Printf.sprintf "or%d" n
  | Xor2 -> "xor2"
  | Xnor2 -> "xnor2"
  | Aoi21 -> "aoi21"
  | Oai21 -> "oai21"
  | Carry_inv -> "carry_inv"
  | Sum_inv -> "sum_inv"

let logic kind ins =
  if Array.length ins <> arity kind then
    invalid_arg (Printf.sprintf "Gate.logic %s: arity mismatch" (name kind));
  let l = Array.to_list ins in
  match kind with
  | Inv -> Signal.lnot ins.(0)
  | Buf -> ins.(0)
  | Nand _ -> Signal.lnot (Signal.all l)
  | Nor _ -> Signal.lnot (Signal.any l)
  | And _ -> Signal.all l
  | Or _ -> Signal.any l
  | Xor2 -> Signal.lxor_ ins.(0) ins.(1)
  | Xnor2 -> Signal.lnot (Signal.lxor_ ins.(0) ins.(1))
  | Aoi21 ->
    Signal.lnot (Signal.lor_ (Signal.land_ ins.(0) ins.(1)) ins.(2))
  | Oai21 ->
    Signal.lnot (Signal.land_ (Signal.lor_ ins.(0) ins.(1)) ins.(2))
  | Carry_inv -> Signal.lnot (Signal.majority3 ins.(0) ins.(1) ins.(2))
  | Sum_inv ->
    Signal.lnot (Signal.parity [ ins.(0); ins.(1); ins.(2) ])

(* [logic] over two-valued net levels, for hot loops: pin [k] reads
   [level.(pins.(k))], and nothing is allocated *)
let rec all_high level pins k =
  k >= Array.length pins || (level.(pins.(k)) && all_high level pins (k + 1))

let rec any_high level pins k =
  k < Array.length pins && (level.(pins.(k)) || any_high level pins (k + 1))

let eval_levels kind level pins =
  if Array.length pins <> arity kind then
    invalid_arg
      (Printf.sprintf "Gate.eval_levels %s: arity mismatch" (name kind));
  match kind with
  | Inv -> not level.(pins.(0))
  | Buf -> level.(pins.(0))
  | Nand _ -> not (all_high level pins 0)
  | Nor _ -> not (any_high level pins 0)
  | And _ -> all_high level pins 0
  | Or _ -> any_high level pins 0
  | Xor2 -> level.(pins.(0)) <> level.(pins.(1))
  | Xnor2 -> level.(pins.(0)) = level.(pins.(1))
  | Aoi21 -> not ((level.(pins.(0)) && level.(pins.(1))) || level.(pins.(2)))
  | Oai21 -> not ((level.(pins.(0)) || level.(pins.(1))) && level.(pins.(2)))
  | Carry_inv ->
    let a = level.(pins.(0)) and b = level.(pins.(1)) in
    let c = level.(pins.(2)) in
    not ((a && b) || (a && c) || (b && c))
  | Sum_inv -> not (level.(pins.(0)) <> level.(pins.(1)) <> level.(pins.(2)))

let inverting = function
  | Inv | Nand _ | Nor _ | Carry_inv | Sum_inv | Xnor2 | Aoi21 | Oai21 ->
    true
  | Buf | And _ | Or _ | Xor2 -> false

let pulldown_stack_depth = function
  | Inv -> 1
  | Buf -> 1
  | Nand n -> n
  | Nor _ -> 1
  | And n -> n    (* dominated by its internal NAND stage *)
  | Or _ -> 1
  | Xor2 | Xnor2 -> 2
  | Aoi21 | Oai21 -> 2
  | Carry_inv -> 2
  | Sum_inv -> 3

let pullup_stack_depth = function
  | Inv -> 1
  | Buf -> 1
  | Nand _ -> 1
  | Nor n -> n
  | And _ -> 1
  | Or n -> n
  | Xor2 | Xnor2 -> 2
  | Aoi21 | Oai21 -> 2
  | Carry_inv -> 2
  | Sum_inv -> 3

type drive = {
  wl_pull_down : float;
  wl_pull_up : float;
  cin : float;
  cout_j : float;
  n_transistors : int;
}

(* Devices on a series stack of depth d are drawn at d times the unit
   width so the equivalent inverter keeps the unit strength; the input
   pins then present d-times the gate capacitance. *)
let transistor_count = function
  | Inv -> 2
  | Buf -> 4
  | Nand n | Nor n -> 2 * n
  | And n | Or n -> (2 * n) + 2
  | Xor2 -> 16   (* four NAND2, the expansion used at transistor level *)
  | Xnor2 -> 18
  | Aoi21 | Oai21 -> 6
  | Carry_inv -> 10  (* mirror-adder carry stage *)
  | Sum_inv -> 14    (* mirror-adder sum stage *)

let drive (tech : Device.Tech.t) ~strength kind =
  if strength <= 0.0 then invalid_arg "Gate.drive: strength <= 0";
  let dn = float_of_int (pulldown_stack_depth kind) in
  let dp = float_of_int (pullup_stack_depth kind) in
  let wl_n = strength *. tech.Device.Tech.wl_n_unit in
  let wl_p = strength *. tech.Device.Tech.wl_p_unit in
  (* each input pin sees one upsized NMOS gate and one upsized PMOS gate *)
  let cin =
    ((dn *. wl_n) +. (dp *. wl_p)) *. tech.Device.Tech.cg_per_wl
  in
  let cout_j =
    ((dn *. wl_n) +. (dp *. wl_p)) *. tech.Device.Tech.cj_per_wl
  in
  { wl_pull_down = wl_n;
    wl_pull_up = wl_p;
    cin;
    cout_j;
    n_transistors = transistor_count kind }
