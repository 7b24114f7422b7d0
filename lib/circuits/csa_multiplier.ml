module C = Netlist.Circuit
module G = Netlist.Gate

type t = {
  circuit : C.t;
  x : C.net array;
  y : C.net array;
  product : C.net array;
}

(* Braun array.  Weights: pp.(i).(j) has weight i+j.  Row i of adders
   (i >= 1) combines pp.(i).(j) with the previous row's sums and carries;
   a final ripple row propagates the leftover carries.  Boundary zeros
   share one tied-low net. *)
let make tech ~bits =
  let cl = 15e-15 in
  if bits < 2 then invalid_arg "Csa_multiplier.make: bits < 2";
  let n = bits in
  let bld = C.builder tech in
  let x =
    Array.init n (fun j -> C.add_input ~name:(Printf.sprintf "x%d" j) bld)
  in
  let y =
    Array.init n (fun i -> C.add_input ~name:(Printf.sprintf "y%d" i) bld)
  in
  let zero = C.add_tie ~name:"zero" bld false in
  let pp =
    Array.init n (fun i ->
        Array.init n (fun j ->
            C.add_gate
              ~name:(Printf.sprintf "pp%d_%d" i j)
              bld (G.And 2) [ x.(j); y.(i) ]))
  in
  let product = Array.make (2 * n) zero in
  product.(0) <- pp.(0).(0);
  let fa name a b cin =
    let cell = Mirror_adder.add_cell ~name bld ~a ~b ~cin in
    (cell.Mirror_adder.sum, cell.Mirror_adder.cout)
  in
  (* sums.(j) holds S_{i-1}[j] entering row i (weight i-1+j); carries.(j)
     holds C_{i-1}[j] (weight i-1+j+1). *)
  let sums = ref (Array.init n (fun j -> pp.(0).(j))) in
  let carries = ref (Array.make n zero) in
  for i = 1 to n - 1 do
    let next_sums = Array.make n zero in
    let next_carries = Array.make n zero in
    for j = 0 to n - 1 do
      let from_above = if j + 1 < n then !sums.(j + 1) else zero in
      let s, c =
        fa (Printf.sprintf "fa%d_%d" i j) pp.(i).(j) from_above !carries.(j)
      in
      next_sums.(j) <- s;
      next_carries.(j) <- c
    done;
    product.(i) <- next_sums.(0);
    sums := next_sums;
    carries := next_carries
  done;
  (* carry-propagate row over weights n .. 2n-1 *)
  let carry = ref zero in
  for j = 1 to n - 1 do
    let s, c =
      fa (Printf.sprintf "cpa%d" j) !sums.(j) !carries.(j - 1) !carry
    in
    product.(n - 1 + j) <- s;
    carry := c
  done;
  let s_last, _c_last =
    fa "cpa_last" !carries.(n - 1) !carry zero
  in
  product.((2 * n) - 1) <- s_last;
  Array.iteri
    (fun w p ->
      C.add_load bld p cl;
      C.mark_output ~name:(Printf.sprintf "p%d" w) bld p)
    product;
  { circuit = C.freeze bld; x; y; product }

let vector_a = ((0x00, 0x00), (0xFF, 0x81))
let vector_b = ((0x7F, 0x81), (0xFF, 0x81))
