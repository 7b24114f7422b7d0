module C = Netlist.Circuit

type report = {
  circuit : C.t;
  iterations : int;
  upsized : (C.gate_id * float) list;
}

let fix_weak_drivers circuit =
  let max_iterations = 8 and factor = 2.0 in
  let n_gates = C.num_gates circuit in
  let strengths =
    Array.map (fun (g : C.gate_inst) -> g.C.strength) (C.gates circuit)
  in
  let rec loop c iter =
    match Lint.weak_gates c with
    | [] -> (c, iter)
    | weak when iter >= max_iterations -> ignore weak; (c, iter)
    | weak ->
      List.iter (fun gid -> strengths.(gid) <- strengths.(gid) *. factor)
        weak;
      let c' =
        C.with_strengths circuit (fun g -> strengths.(g.C.id))
      in
      loop c' (iter + 1)
  in
  let repaired, iterations = loop circuit 0 in
  let upsized =
    List.filter_map
      (fun gid ->
        let orig = (C.gates circuit).(gid).C.strength in
        if strengths.(gid) <> orig then Some (gid, strengths.(gid))
        else None)
      (List.init n_gates (fun i -> i))
  in
  { circuit = repaired; iterations; upsized }
