type mos_prep = {
  params : Device.Mosfet.params;
  wl : float;
  ud : int;
  ug : int;
  us : int;
  ub : int;
  sdd : int; sdg : int; sds : int; sdb : int;
  ssd : int; ssg : int; sss : int; ssb : int;
}

type two_pin = {
  ua : int;
  ub2 : int;
  saa : int; sab : int; sba : int; sbb : int;
  value : float;
}

type vsrc_prep = {
  up : int;
  un : int;
  ubr : int;
  spb : int; snb : int; sbp : int; sbn : int;
  sbr : int;  (* the branch diagonal *)
  wave : Phys.Pwl.t;
}

type prep =
  | P_mos of mos_prep
  | P_res of two_pin
  | P_cap of two_pin
  | P_vsrc of vsrc_prep

type system = {
  netlist : Netlist.Transistor.t;
  n_node_unknowns : int;
  n_unknowns : int;
  pattern : La.Sparse.pattern;
  symbolic : La.Sparse.symbolic;
  elems : prep array;
  caps : two_pin array;
  tau_min : float option;
  gmin_slots : int array;
  unknown_of_node : int array;
}

(* Fastest RC time constant estimate: per node, the grounded/attached
   capacitance over the total incident resistor conductance.  Used to
   derive the default transient step so large-[t_stop] decks don't
   silently under-resolve their fast nodes. *)
let estimate_tau_min elements n_nodes =
  let module T = Netlist.Transistor in
  let g_node = Array.make n_nodes 0.0 in
  let c_node = Array.make n_nodes 0.0 in
  Array.iter
    (fun e ->
      match e with
      | T.Res { pos; neg; r } ->
        let g = 1.0 /. r in
        if pos > 0 then g_node.(pos) <- g_node.(pos) +. g;
        if neg > 0 then g_node.(neg) <- g_node.(neg) +. g
      | T.Cap { pos; neg; c } ->
        if pos > 0 then c_node.(pos) <- c_node.(pos) +. c;
        if neg > 0 then c_node.(neg) <- c_node.(neg) +. c
      | T.Vsrc _ | T.Mos _ -> ())
    elements;
  let tau = ref infinity in
  for i = 1 to n_nodes - 1 do
    if g_node.(i) > 0.0 && c_node.(i) > 0.0 then
      tau := Float.min !tau (c_node.(i) /. g_node.(i))
  done;
  if Float.is_finite !tau then Some !tau else None

let prepare netlist =
  let module T = Netlist.Transistor in
  let n_nodes = T.num_nodes netlist in
  let elements = T.elements netlist in
  let tau_min = estimate_tau_min elements n_nodes in
  (* node i > 0 is unknown i - 1; ground is -1 *)
  let unknown_of_node = Array.init n_nodes (fun i -> i - 1) in
  let n_node_unknowns = n_nodes - 1 in
  let n_vsrc =
    Array.fold_left
      (fun acc e -> match e with T.Vsrc _ -> acc + 1 | T.Mos _ | T.Cap _ | T.Res _ -> acc)
      0 elements
  in
  let n_unknowns = n_node_unknowns + n_vsrc in
  (* collect pattern entries *)
  let entries = ref [] in
  let pair r c = if r >= 0 && c >= 0 then entries := (r, c) :: !entries in
  let next_branch = ref n_node_unknowns in
  let skeleton =
    Array.map
      (fun e ->
        match e with
        | T.Mos { drain; gate; source; body; params; wl } ->
          let ud = unknown_of_node.(drain)
          and ug = unknown_of_node.(gate)
          and us = unknown_of_node.(source)
          and ub = unknown_of_node.(body) in
          pair ud ud; pair ud ug; pair ud us; pair ud ub;
          pair us ud; pair us ug; pair us us; pair us ub;
          `Mos (params, wl, ud, ug, us, ub)
        | T.Res { pos; neg; r } ->
          let ua = unknown_of_node.(pos) and ub2 = unknown_of_node.(neg) in
          pair ua ua; pair ua ub2; pair ub2 ua; pair ub2 ub2;
          `Res (ua, ub2, 1.0 /. r)
        | T.Cap { pos; neg; c } ->
          let ua = unknown_of_node.(pos) and ub2 = unknown_of_node.(neg) in
          pair ua ua; pair ua ub2; pair ub2 ua; pair ub2 ub2;
          `Cap (ua, ub2, c)
        | T.Vsrc { pos; neg; wave } ->
          let up = unknown_of_node.(pos) and un = unknown_of_node.(neg) in
          let ubr = !next_branch in
          incr next_branch;
          pair up ubr; pair un ubr; pair ubr up; pair ubr un;
          (* keep the branch diagonal in the pattern: it regularises the
             factorisation when both terminals are ground *)
          pair ubr ubr;
          `Vsrc (up, un, ubr, wave))
      elements
  in
  (* gmin diagonals on node unknowns are the unknown diagonals, included
     automatically by [pattern_of_entries]. *)
  let pattern = La.Sparse.pattern_of_entries n_unknowns !entries in
  let symbolic = La.Sparse.analyze pattern in
  let slot r c =
    if r >= 0 && c >= 0 then La.Sparse.slot pattern r c else -1
  in
  let elems =
    Array.map
      (function
        | `Mos (params, wl, ud, ug, us, ub) ->
          P_mos
            { params; wl; ud; ug; us; ub;
              sdd = slot ud ud; sdg = slot ud ug; sds = slot ud us;
              sdb = slot ud ub;
              ssd = slot us ud; ssg = slot us ug; sss = slot us us;
              ssb = slot us ub }
        | `Res (ua, ub2, g) ->
          P_res
            { ua; ub2; value = g;
              saa = slot ua ua; sab = slot ua ub2;
              sba = slot ub2 ua; sbb = slot ub2 ub2 }
        | `Cap (ua, ub2, c) ->
          P_cap
            { ua; ub2; value = c;
              saa = slot ua ua; sab = slot ua ub2;
              sba = slot ub2 ua; sbb = slot ub2 ub2 }
        | `Vsrc (up, un, ubr, wave) ->
          P_vsrc
            { up; un; ubr; wave;
              spb = slot up ubr; snb = slot un ubr;
              sbp = slot ubr up; sbn = slot ubr un; sbr = slot ubr ubr })
      skeleton
  in
  let caps =
    Array.of_list
      (List.filter_map
         (function P_cap c -> Some c | P_mos _ | P_res _ | P_vsrc _ -> None)
         (Array.to_list elems))
  in
  let gmin_slots =
    Array.init n_node_unknowns (fun i -> La.Sparse.slot pattern i i)
  in
  { netlist; n_node_unknowns; n_unknowns; pattern; symbolic; elems; caps;
    tau_min; gmin_slots; unknown_of_node }
