module C = Netlist.Circuit

type t = {
  circuit : C.t;
  a : C.net array;
  b : C.net array;
  sums : C.net array;
  cout : C.net;
}

let make tech ~bits =
  let cl = 15e-15 in
  if bits < 1 then invalid_arg "Ripple_adder.make: bits < 1";
  let bld = C.builder tech in
  let a =
    Array.init bits (fun i ->
        C.add_input ~name:(Printf.sprintf "a%d" i) bld)
  in
  let b =
    Array.init bits (fun i ->
        C.add_input ~name:(Printf.sprintf "b%d" i) bld)
  in
  let c0 = C.add_tie ~name:"c0" bld false in
  let sums = Array.make bits 0 in
  let carry = ref c0 in
  for i = 0 to bits - 1 do
    let cell =
      Mirror_adder.add_cell ~name:(Printf.sprintf "fa%d" i) bld
        ~a:a.(i) ~b:b.(i) ~cin:!carry
    in
    sums.(i) <- cell.Mirror_adder.sum;
    carry := cell.Mirror_adder.cout
  done;
  Array.iteri
    (fun i s ->
      C.add_load bld s cl;
      C.mark_output ~name:(Printf.sprintf "s%d" i) bld s)
    sums;
  C.add_load bld !carry cl;
  C.mark_output ~name:"cout" bld !carry;
  { circuit = C.freeze bld; a; b; sums; cout = !carry }
