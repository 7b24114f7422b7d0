let propagation_delay ~vin ~vout ~vdd ~in_rising ~out_rising =
  let half = vdd /. 2.0 in
  match
    Phys.Pwl.first_crossing vin ~level:half ~rising:in_rising
  with
  | None -> None
  | Some t_in ->
    (* last matching crossing of the output: skip glitches *)
    let crossings = Phys.Pwl.crossings vout ~level:half in
    let matching =
      List.filter
        (fun (t, rising) -> rising = out_rising && t >= t_in)
        crossings
    in
    (match List.rev matching with
     | [] -> None
     | (t_out, _) :: _ -> Some (t_out -. t_in))

(* every other crossing is earlier than the last one, so the last one
   at or after [t_start] is the last one of all, or there is none *)
let net_delay w ~vdd ~t_start =
  match Phys.Pwl.last_crossing w ~level:(vdd /. 2.0) with
  | Some t when t >= t_start -> Some (t -. t_start)
  | Some _ | None -> None

let critical_delay outputs delay =
  Array.fold_left
    (fun acc n ->
      match delay n with
      | None -> acc
      | Some d ->
        (match acc with
         | Some (_, best) when best >= d -> acc
         | Some _ | None -> Some (n, d)))
    None outputs

