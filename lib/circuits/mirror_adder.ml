module C = Netlist.Circuit
module G = Netlist.Gate

type outputs = {
  sum : C.net;
  cout : C.net;
  sum_bar : C.net;
  cout_bar : C.net;
}

let add_cell ?name builder ~a ~b ~cin =
  let nm suffix =
    match name with
    | Some base -> Some (base ^ "_" ^ suffix)
    | None -> None
  in
  let cout_bar =
    C.add_gate ?name:(nm "cb") builder G.Carry_inv [ a; b; cin ]
  in
  let sum_bar =
    C.add_gate ?name:(nm "sb") builder G.Sum_inv
      [ a; b; cin; cout_bar ]
  in
  let cout = C.add_gate ?name:(nm "cout") builder G.Inv [ cout_bar ] in
  let sum = C.add_gate ?name:(nm "sum") builder G.Inv [ sum_bar ] in
  { sum; cout; sum_bar; cout_bar }
