module C = Netlist.Circuit

let by_level circuit ~blocks =
  if blocks < 1 then invalid_arg "Hierarchy.by_level: blocks < 1";
  let gd = C.gate_depths circuit in
  let max_depth = Array.fold_left Int.max 1 gd in
  Array.map (fun d -> Int.min (blocks - 1) ((d - 1) * blocks / max_depth)) gd

let populations circuit ~blocks =
  let counts = Array.make blocks 0 in
  Array.iter
    (fun b -> counts.(b) <- counts.(b) + 1)
    (by_level circuit ~blocks);
  counts

let config tech circuit ~wl_per_block ~blocks =
  let sleep = Device.Sleep.nmos_footer tech ~wl:wl_per_block in
  { Breakpoint_sim.default_config with
    Breakpoint_sim.partition =
      Some
        { Breakpoint_sim.block_of_gate = by_level circuit ~blocks;
          sleeps = Array.make blocks (Breakpoint_sim.Sleep_fet sleep) } }

let size_uniform_for_degradation circuit ~vectors ~target ~blocks =
  let wl_lo = 0.5 and wl_hi = 4096.0 in
  if vectors = [] then invalid_arg "Hierarchy: empty vector list";
  let tech = C.tech circuit in
  let base = Sizing.cmos_delay circuit ~vectors in
  let meets = Sizing.feasibility_bp circuit vectors ~base ~target in
  let feasible wl = meets (config tech circuit ~wl_per_block:wl ~blocks) in
  if not (feasible wl_hi) then raise Not_found;
  Sizing.smallest_feasible ~lo:wl_lo ~hi:wl_hi feasible
