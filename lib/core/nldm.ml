module C = Netlist.Circuit

type table = {
  loads : float array;  (* ascending *)
  ramps : float array;  (* ascending *)
  (* surfaces indexed [load][ramp] *)
  d_worst : float array array;
  s_worst : float array array;
}

type library = {
  tech : Device.Tech.t;
  tables : (Netlist.Gate.kind, table) Hashtbl.t;
}

let characterize ?(loads = [ 10e-15; 30e-15; 80e-15 ])
    ?(ramps = [ 20e-12; 80e-12; 200e-12 ]) tech kind_list =
  let loads = Array.of_list (List.sort_uniq compare loads) in
  let ramps = Array.of_list (List.sort_uniq compare ramps) in
  let tables = Hashtbl.create 16 in
  List.iter
    (fun kind ->
      let points =
        Array.map
          (fun cl ->
            Array.map (fun ramp -> Characterize.measure tech kind ~cl ~ramp)
              ramps)
          loads
      in
      let worst fall rise =
        Array.map (Array.map (fun p -> Float.max (fall p) (rise p))) points
      in
      Hashtbl.replace tables kind
        { loads;
          ramps;
          d_worst =
            worst (fun p -> p.Characterize.fall_delay) (fun p ->
                p.Characterize.rise_delay);
          s_worst =
            worst (fun p -> p.Characterize.fall_slew) (fun p ->
                p.Characterize.rise_slew) })
    kind_list;
  { tech; tables }


(* clamped bracketing: index i with axis.(i) <= x <= axis.(i+1), plus the
   interpolation fraction *)
let bracket axis x =
  let n = Array.length axis in
  if n = 1 || x <= axis.(0) then (0, 0, 0.0)
  else if x >= axis.(n - 1) then (n - 1, n - 1, 0.0)
  else begin
    let i = ref 0 in
    while axis.(!i + 1) < x do incr i done;
    let lo = axis.(!i) and hi = axis.(!i + 1) in
    (!i, !i + 1, (x -. lo) /. (hi -. lo))
  end

let bilinear table surface ~cl ~slew_in =
  let i0, i1, fi = bracket table.loads cl in
  let j0, j1, fj = bracket table.ramps slew_in in
  let v i j = surface.(i).(j) in
  let a = v i0 j0 +. (fj *. (v i0 j1 -. v i0 j0)) in
  let b = v i1 j0 +. (fj *. (v i1 j1 -. v i1 j0)) in
  a +. (fi *. (b -. a))

let table_of lib kind =
  match Hashtbl.find_opt lib.tables kind with
  | Some t -> t
  | None -> raise Not_found

let delay lib kind ~cl ~slew_in =
  let t = table_of lib kind in
  bilinear t t.d_worst ~cl ~slew_in

let output_slew lib kind ~cl ~slew_in =
  let t = table_of lib kind in
  bilinear t t.s_worst ~cl ~slew_in

type timing = {
  arrival : float array;
  slew : float array;
  critical : C.net * float;
}

let sta ?(input_slew = 50e-12) lib circuit =
  let slew = Array.make (C.num_nets circuit) input_slew in
  (* the delay closure carries the slews: the worst input slew picks the
     table point, and the output slew is recorded for the fanout *)
  let gate_delay (g : C.gate_inst) =
    (* an S-strength gate behaves like the unit gate at load cl / S *)
    let cl = C.load_capacitance circuit g.C.output /. g.C.strength in
    let slew_in =
      Array.fold_left (fun s net -> Float.max s slew.(net)) input_slew
        g.C.inputs
    in
    slew.(g.C.output) <- output_slew lib g.C.kind ~cl ~slew_in;
    delay lib g.C.kind ~cl ~slew_in
  in
  let arrival = Sta.propagate circuit ~delay:gate_delay in
  { arrival; slew; critical = Sta.worst_output circuit arrival }
