type step = {
  index : int;
  before : (int * int) list;
  after : (int * int) list;
  delay : float option;
  settle : float;
  vx_peak : float;
  violation : bool;
}

type run = {
  steps : step list;
  worst_delay : (int * float) option;
  worst_vx : float;
  violations : int;
}

let run ?(config = Breakpoint_sim.default_config) circuit ~period ~vectors =
  if period <= 0.0 then invalid_arg "Sequence.run: period <= 0";
  match vectors with
  | [] | [ _ ] -> invalid_arg "Sequence.run: need at least two vectors"
  | first :: rest ->
    let steps = ref [] in
    let index = ref 0 in
    let prev = ref first in
    List.iter
      (fun vec ->
        let r =
          Breakpoint_sim.simulate_ints ~config circuit ~before:!prev
            ~after:vec
        in
        let delay =
          match Breakpoint_sim.critical_delay r with
          | Some (_, d) -> Some d
          | None -> None
        in
        (* the inputs flip at t = 0 *)
        let settle = Breakpoint_sim.t_finish r in
        incr index;
        steps :=
          { index = !index;
            before = !prev;
            after = vec;
            delay;
            settle;
            vx_peak = Breakpoint_sim.vx_peak r;
            violation = settle > period }
          :: !steps;
        prev := vec)
      rest;
    let steps = List.rev !steps in
    let worst_delay =
      List.fold_left
        (fun acc s ->
          match (s.delay, acc) with
          | Some d, Some (_, best) when d <= best -> acc
          | Some d, (Some _ | None) -> Some (s.index, d)
          | None, _ -> acc)
        None steps
    in
    { steps;
      worst_delay;
      worst_vx = List.fold_left (fun m s -> Float.max m s.vx_peak) 0.0 steps;
      violations =
        List.length (List.filter (fun s -> s.violation) steps) }

let random_workload ?(seed = 31) ~widths cycles =
  if cycles < 2 then invalid_arg "Sequence.random_workload: cycles < 2";
  let st = Random.State.make [| seed |] in
  List.init cycles (fun _ ->
      List.map (fun w -> (w, Random.State.int st (1 lsl w))) widths)

let pp_step fmt s =
  Format.fprintf fmt "cycle %d: delay %s settle %s vx %s%s" s.index
    (match s.delay with
     | Some d -> Phys.Units.to_eng_string ~unit:"s" d
     | None -> "-")
    (Phys.Units.to_eng_string ~unit:"s" s.settle)
    (Phys.Units.to_eng_string ~unit:"V" s.vx_peak)
    (if s.violation then "  ** PERIOD VIOLATION **" else "")
