module C = Netlist.Circuit
module G = Netlist.Gate

type t = {
  circuit : C.t;
  a : C.net array;
  b : C.net array;
  sums : C.net array;
  cout : C.net;
}

(* Parallel prefix over (generate, propagate) pairs:
   (g, p) o (g', p') = (g or (p and g'), p and p') where the primed pair
   is the less-significant one. *)
let make tech ~bits =
  let cl = 15e-15 in
  if bits < 1 then invalid_arg "Kogge_stone.make: bits < 1";
  let bld = C.builder tech in
  let a =
    Array.init bits (fun i -> C.add_input ~name:(Printf.sprintf "a%d" i) bld)
  in
  let b =
    Array.init bits (fun i -> C.add_input ~name:(Printf.sprintf "b%d" i) bld)
  in
  let gate = C.add_gate bld in
  let p = Array.init bits (fun i -> gate G.Xor2 [ a.(i); b.(i) ]) in
  let g = Array.init bits (fun i -> gate (G.And 2) [ a.(i); b.(i) ]) in
  (* prefix levels with doubling span *)
  let cur_g = ref (Array.copy g) and cur_p = ref (Array.copy p) in
  let span = ref 1 in
  while !span < bits do
    let next_g = Array.copy !cur_g and next_p = Array.copy !cur_p in
    for i = !span to bits - 1 do
      let lo = i - !span in
      let pg = gate (G.And 2) [ !cur_p.(i); !cur_g.(lo) ] in
      next_g.(i) <- gate (G.Or 2) [ !cur_g.(i); pg ];
      next_p.(i) <- gate (G.And 2) [ !cur_p.(i); !cur_p.(lo) ]
    done;
    cur_g := next_g;
    cur_p := next_p;
    span := !span * 2
  done;
  (* carries into each position: c_0 = 0, c_{i+1} = prefix g over [0..i] *)
  let sums = Array.make bits 0 in
  sums.(0) <- p.(0);
  for i = 1 to bits - 1 do
    sums.(i) <- gate G.Xor2 [ p.(i); !cur_g.(i - 1) ]
  done;
  let cout = !cur_g.(bits - 1) in
  Array.iteri
    (fun i s ->
      C.add_load bld s cl;
      C.mark_output ~name:(Printf.sprintf "s%d" i) bld s)
    sums;
  C.add_load bld cout cl;
  C.mark_output ~name:"cout" bld cout;
  { circuit = C.freeze bld; a; b; sums; cout }
