let crossing_time w ~level ~rising ~after =
  Phys.Pwl.first_crossing ~after w ~level ~rising

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

(* exact for a PWL: the maximum is attained at a breakpoint or window
   endpoint *)
let peak_value w ~between:(t0, t1) =
  let at_bounds =
    Float.max (Phys.Pwl.value_at w t0) (Phys.Pwl.value_at w t1)
  in
  List.fold_left
    (fun acc (t, v) -> if t >= t0 && t <= t1 then Float.max acc v else acc)
    at_bounds (Phys.Pwl.points w)

let peak_current_through_cap w ~c ~window:(t0, t1) ~n =
  let pts = Phys.Pwl.sample w ~t0 ~t1 ~n in
  let best = ref 0.0 in
  for i = 0 to n - 2 do
    let t_a, v_a = pts.(i) and t_b, v_b = pts.(i + 1) in
    if t_b > t_a then begin
      let i_c = c *. Float.abs ((v_b -. v_a) /. (t_b -. t_a)) in
      if i_c > !best then best := i_c
    end
  done;
  !best
