type pair = (int * int) list * (int * int) list

let assignments ~widths =
  let total = List.fold_left ( + ) 0 widths in
  if total >= Sys.int_size - 2 then
    invalid_arg "Vectors: too many input bits";
  let unpack v =
    let rec go v = function
      | [] -> []
      | w :: rest -> (w, v land ((1 lsl w) - 1)) :: go (v lsr w) rest
    in
    go v widths
  in
  Seq.map unpack (Seq.init (1 lsl total) (fun i -> i))

let all_pairs ~widths =
  Seq.concat_map
    (fun before -> Seq.map (fun after -> (before, after)) (assignments ~widths))
    (assignments ~widths)

let enumerate_pairs ~widths =
  let total = List.fold_left ( + ) 0 widths in
  if 2 * total > 22 then
    invalid_arg "Vectors.enumerate_pairs: space too large; use all_pairs";
  List.of_seq (all_pairs ~widths)

let random_pairs ?(seed = 42) ~widths n =
  let st = Random.State.make [| seed |] in
  let pick () =
    List.map (fun w -> (w, Random.State.int st (1 lsl w))) widths
  in
  List.init n (fun _ -> (pick (), pick ()))

let label (before, after) =
  let fmt g = String.concat "," (List.map (fun (_, v) -> string_of_int v) g) in
  Printf.sprintf "(%s)->(%s)" (fmt before) (fmt after)

type ranking = {
  pair : pair;
  delay : float;
  cmos_delay : float;
  degradation : float;
  vx_peak : float;
}

let rank_ctx ?(ctx = Eval.Ctx.default) c ~sleep ~pairs =
  let body_effect = ctx.Eval.Ctx.body_effect in
  let cache = ctx.Eval.Ctx.cache in
  let obs = ctx.Eval.Ctx.obs in
  let mt_config =
    { Breakpoint_sim.default_config with Breakpoint_sim.sleep; body_effect }
  in
  let cmos_config =
    { Breakpoint_sim.default_config with Breakpoint_sim.body_effect }
  in
  let evaluate (before, after) =
    let d_mt, vx, _ =
      Cached.bp_metrics ?cache ~obs ~config:mt_config c ~before ~after
    in
    match d_mt with
    | None -> None
    | Some d_mt ->
      let d_cm, _, _ =
        Cached.bp_metrics ?cache ~obs ~config:cmos_config c ~before ~after
      in
      let d_cm = Option.value d_cm ~default:d_mt in
      Some
        { pair = (before, after);
          delay = d_mt;
          cmos_delay = d_cm;
          degradation = (d_mt -. d_cm) /. d_cm;
          vx_peak = vx }
  in
  List.filter_map evaluate pairs
  |> List.sort (fun a b -> compare b.degradation a.degradation)

let rank c ~sleep ~pairs = rank_ctx c ~sleep ~pairs

let worst ?ctx c ~sleep ~pairs ~top =
  let ranked = rank_ctx ?ctx c ~sleep ~pairs in
  List.filteri (fun i _ -> i < top) ranked

let involving_output c ~net ~pairs =
  (* pairs share sides heavily (enumerated products especially), so
     memoize per-side steady states on the shared flattened netlist
     instead of a dense eval per membership test *)
  let es = Netlist.Event_sim.of_circuit c in
  let memo = Hashtbl.create 64 in
  let value_of groups =
    match Hashtbl.find_opt memo groups with
    | Some v -> v
    | None ->
      let st = Netlist.Event_sim.init es (Netlist.Circuit.pack_ints c groups) in
      let v = Netlist.Event_sim.level st net in
      Hashtbl.add memo groups v;
      v
  in
  List.filter
    (fun (before, after) ->
      let v0 = value_of before and v1 = value_of after in
      not (Netlist.Signal.equal v0 v1))
    pairs
