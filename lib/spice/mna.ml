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
  wave : Phys.Pwl.t;
}

type prep =
  | P_mos of mos_prep
  | P_res of two_pin
  | P_cap of two_pin
  | P_vsrc of vsrc_prep

type chain = {
  ca : int;
  cb : int;
  g : float array;
  cvals : float array;
  nodes : int array;
  s_aa : int; s_ab : int; s_ba : int; s_bb : int;
}

type system = {
  netlist : Netlist.Transistor.t;
  n_node_unknowns : int;
  n_unknowns : int;
  pattern : La.Sparse.pattern;
  symbolic : La.Sparse.symbolic;
  elems : prep array;
  caps : two_pin array;
  chains : chain array;
  chain_pos : (int * int) array;
  tau_min : float option;
  gmin_slots : int array;
  unknown_of_node : int array;
}

(* Series-RC chain detection.  An internal node is eligible for
   elimination when it is non-ground, touched by exactly two resistors,
   and touched by nothing else except capacitors to ground (which fold
   into the chain's interior state).  Maximal runs of eligible nodes
   between two non-eligible anchors become [chain] records; rings of
   eligible nodes (no anchor to stamp against) are left unreduced. *)
let find_chains elements n_nodes =
  let module T = Netlist.Transistor in
  let res_deg = Array.make n_nodes 0 in
  let other_deg = Array.make n_nodes 0 in
  let cap_gnd = Array.make n_nodes 0.0 in
  (* resistor adjacency: up to the full incident list per node, as
     (element index, other node, conductance) *)
  let res_adj = Array.make n_nodes [] in
  let touch a = if a > 0 then other_deg.(a) <- other_deg.(a) + 1 in
  Array.iteri
    (fun ei e ->
      match e with
      | T.Res { pos; neg; r } ->
        let g = 1.0 /. r in
        if pos > 0 then begin
          res_deg.(pos) <- res_deg.(pos) + 1;
          res_adj.(pos) <- (ei, neg, g) :: res_adj.(pos)
        end;
        if neg > 0 then begin
          res_deg.(neg) <- res_deg.(neg) + 1;
          res_adj.(neg) <- (ei, pos, g) :: res_adj.(neg)
        end
      | T.Cap { pos; neg; c } ->
        if pos = 0 then cap_gnd.(neg) <- cap_gnd.(neg) +. c
        else if neg = 0 then cap_gnd.(pos) <- cap_gnd.(pos) +. c
        else begin
          touch pos;
          touch neg
        end
      | T.Vsrc { pos; neg; _ } ->
        touch pos;
        touch neg
      | T.Mos { drain; gate; source; body; _ } ->
        touch drain;
        touch gate;
        touch source;
        touch body)
    elements;
  let eligible = Array.make n_nodes false in
  for i = 1 to n_nodes - 1 do
    eligible.(i) <- res_deg.(i) = 2 && other_deg.(i) = 0
  done;
  let visited = Array.make n_nodes false in
  let chains = ref [] in
  (* walk from [start] along the resistor edge [e] until a non-eligible
     anchor; returns the interior nodes passed (excluding [start]), the
     conductances crossed, and the anchor — or [None] on a ring. *)
  let walk start (e0, o0, g0) =
    let rec go prev_edge node acc_nodes acc_g =
      if node = start then None (* ring of eligible nodes *)
      else if node = 0 || not eligible.(node) then
        Some (List.rev acc_nodes, List.rev acc_g, node)
      else
        match
          List.find_opt (fun (ei, _, _) -> ei <> prev_edge) res_adj.(node)
        with
        | None -> Some (List.rev acc_nodes, List.rev acc_g, node)
        | Some (ei, other, g) ->
          go ei other (node :: acc_nodes) (g :: acc_g)
    in
    go e0 o0 [] [ g0 ]
  in
  for i = 1 to n_nodes - 1 do
    if eligible.(i) && not visited.(i) then begin
      match res_adj.(i) with
      | [ e1; e2 ] ->
        (match (walk i e1, walk i e2) with
         | Some (left_nodes, left_g, anchor_a), Some (right_nodes, right_g, anchor_b)
           ->
           (* interior ordered from the a-side anchor to the b-side one;
              the left walk went outward, so reverse it back *)
           let nodes =
             List.rev_append left_nodes (i :: right_nodes)
           in
           let gs = List.rev_append left_g right_g in
           List.iter (fun n -> visited.(n) <- true) nodes;
           chains :=
             (anchor_a, anchor_b, Array.of_list nodes, Array.of_list gs)
             :: !chains
         | None, _ | _, None ->
           (* ring: mark the whole cycle visited so we scan it once *)
           (match walk i e1 with
            | None ->
              let rec mark prev_edge node =
                if node <> i && node <> 0 then begin
                  visited.(node) <- true;
                  match
                    List.find_opt
                      (fun (ei, _, _) -> ei <> prev_edge)
                      res_adj.(node)
                  with
                  | Some (ei, other, _) -> mark ei other
                  | None -> ()
                end
              in
              visited.(i) <- true;
              (match e1 with (ei, o, _) -> mark ei o)
            | Some _ -> visited.(i) <- true))
      | _ -> visited.(i) <- true
    end
  done;
  (!chains |> List.rev, cap_gnd, res_deg, res_adj)

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

let prepare ?(reduce = false) netlist =
  let module T = Netlist.Transistor in
  let n_nodes = T.num_nodes netlist in
  let elements = T.elements netlist in
  let tau_min = estimate_tau_min elements n_nodes in
  let chains_raw, cap_gnd, _, _ =
    if reduce then find_chains elements n_nodes else ([], [||], [||], [||])
  in
  (* element indices swallowed by a chain: its interior resistors, plus
     every grounded cap hanging off an interior node *)
  let eliminated = Array.make n_nodes false in
  List.iter
    (fun (_, _, nodes, _) -> Array.iter (fun n -> eliminated.(n) <- true) nodes)
    chains_raw;
  let skip_elem = Array.make (Array.length elements) false in
  if reduce then
    Array.iteri
      (fun ei e ->
        match e with
        | T.Res { pos; neg; _ } ->
          if (pos > 0 && eliminated.(pos)) || (neg > 0 && eliminated.(neg))
          then skip_elem.(ei) <- true
        | T.Cap { pos; neg; _ } ->
          if (pos = 0 && neg > 0 && eliminated.(neg))
             || (neg = 0 && pos > 0 && eliminated.(pos))
          then skip_elem.(ei) <- true
        | T.Vsrc _ | T.Mos _ -> ())
      elements;
  let unknown_of_node = Array.make n_nodes (-1) in
  let next_u = ref 0 in
  for i = 1 to n_nodes - 1 do
    if eliminated.(i) then unknown_of_node.(i) <- -2
    else begin
      unknown_of_node.(i) <- !next_u;
      incr next_u
    end
  done;
  let n_node_unknowns = !next_u in
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
    Array.mapi
      (fun ei e ->
        if skip_elem.(ei) then `Skip
        else
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
  (* anchor fill-ins of every chain *)
  let chain_anchors =
    List.map
      (fun (a, b, nodes, gs) ->
        let ca = if a = 0 then -1 else unknown_of_node.(a) in
        let cb = if b = 0 then -1 else unknown_of_node.(b) in
        pair ca ca; pair ca cb; pair cb ca; pair cb cb;
        (ca, cb, nodes, gs))
      chains_raw
  in
  (* gmin diagonals on node unknowns are the unknown diagonals, included
     automatically by [pattern_of_entries]. *)
  let pattern = La.Sparse.pattern_of_entries n_unknowns !entries in
  let symbolic = La.Sparse.analyze pattern in
  let slot r c =
    if r >= 0 && c >= 0 then La.Sparse.slot pattern r c else -1
  in
  let elems =
    Array.of_list
      (List.filter_map
         (fun sk ->
           match sk with
           | `Skip -> None
           | `Mos (params, wl, ud, ug, us, ub) ->
             Some
               (P_mos
                  { params; wl; ud; ug; us; ub;
                    sdd = slot ud ud; sdg = slot ud ug; sds = slot ud us;
                    sdb = slot ud ub;
                    ssd = slot us ud; ssg = slot us ug; sss = slot us us;
                    ssb = slot us ub })
           | `Res (ua, ub2, g) ->
             Some
               (P_res
                  { ua; ub2; value = g;
                    saa = slot ua ua; sab = slot ua ub2;
                    sba = slot ub2 ua; sbb = slot ub2 ub2 })
           | `Cap (ua, ub2, c) ->
             Some
               (P_cap
                  { ua; ub2; value = c;
                    saa = slot ua ua; sab = slot ua ub2;
                    sba = slot ub2 ua; sbb = slot ub2 ub2 })
           | `Vsrc (up, un, ubr, wave) ->
             Some
               (P_vsrc
                  { up; un; ubr; wave;
                    spb = slot up ubr; snb = slot un ubr;
                    sbp = slot ubr up; sbn = slot ubr un }))
         (Array.to_list skeleton))
  in
  let chains =
    Array.of_list
      (List.map
         (fun (ca, cb, nodes, gs) ->
           { ca; cb;
             g = gs;
             cvals = Array.map (fun n -> cap_gnd.(n)) nodes;
             nodes;
             s_aa = slot ca ca; s_ab = slot ca cb;
             s_ba = slot cb ca; s_bb = slot cb cb })
         chain_anchors)
  in
  let chain_pos = Array.make n_nodes (-1, -1) in
  Array.iteri
    (fun ci ch ->
      Array.iteri (fun k n -> chain_pos.(n) <- (ci, k)) ch.nodes)
    chains;
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
    chains; chain_pos; tau_min; gmin_slots; unknown_of_node }

let reduced_nodes sys =
  Array.fold_left
    (fun acc ch -> acc + Array.length ch.nodes)
    0 sys.chains
