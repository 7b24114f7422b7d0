(* Waveforms are stored as parallel arrays for cache-friendly
   interpolation; both simulators build waveforms monotonically and then
   only read them. *)
type t = { times : float array; values : float array }

let check_finite t v =
  if not (Float.is_finite t && Float.is_finite v) then
    invalid_arg "Pwl: non-finite point"

let create points =
  match points with
  | [] -> invalid_arg "Pwl.create: empty"
  | _ ->
    List.iter (fun (t, v) -> check_finite t v) points;
    let sorted =
      List.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2) points
    in
    (* keep the last value for duplicate times *)
    let dedup =
      List.fold_left
        (fun acc (t, v) ->
          match acc with
          | (t0, _) :: rest when t0 = t -> (t, v) :: rest
          | _ -> (t, v) :: acc)
        [] sorted
      |> List.rev
    in
    { times = Array.of_list (List.map fst dedup);
      values = Array.of_list (List.map snd dedup) }

(* [create (List.rev points)], built in one pass when the points come
   newest first with no time increase; [create] handles anything else.
   Of a run of equal times the newest point is kept, as [create] keeps
   the last. *)
let create_rev points =
  (* the number of distinct times, or None to fall back *)
  let rec count n t_newer = function
    | [] -> Some n
    | (t, v) :: rest ->
      if (not (Float.is_finite t && Float.is_finite v)) || t > t_newer then
        None
      else count (if t = t_newer then n else n + 1) t rest
  in
  match count 0 infinity points with
  | None | Some 0 -> create (List.rev points)
  | Some n ->
    let times = Array.make n 0.0 and values = Array.make n 0.0 in
    let rec fill k t_newer = function
      | [] -> ()
      | (t, v) :: rest ->
        if t = t_newer then fill k t_newer rest
        else begin
          times.(k) <- t;
          values.(k) <- v;
          fill (k - 1) t rest
        end
    in
    fill (n - 1) infinity points;
    { times; values }

let constant v = { times = [| 0.0 |]; values = [| v |] }
let points w = Array.to_list (Array.map2 (fun t v -> (t, v)) w.times w.values)

(* Index of the last breakpoint with time <= t, or -1. *)
let locate w t =
  let n = Array.length w.times in
  if t < w.times.(0) then -1
  else if t >= w.times.(n - 1) then n - 1
  else
    let rec search lo hi =
      (* invariant: times.(lo) <= t < times.(hi) *)
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if w.times.(mid) <= t then search mid hi else search lo mid
    in
    search 0 (n - 1)

let value_at w t =
  let n = Array.length w.times in
  let i = locate w t in
  if i < 0 then w.values.(0)
  else if i >= n - 1 then w.values.(n - 1)
  else
    let t0 = w.times.(i) and t1 = w.times.(i + 1) in
    let v0 = w.values.(i) and v1 = w.values.(i + 1) in
    v0 +. ((v1 -. v0) *. (t -. t0) /. (t1 -. t0))

let crossing_time t0 v0 t1 v1 ~level =
  if v1 = v0 then t0 else t0 +. ((level -. v0) *. (t1 -. t0) /. (v1 -. v0))

let segment_crossing t0 v0 t1 v1 ~level ~rising =
  let crosses =
    if rising then v0 < level && v1 >= level
    else v0 > level && v1 <= level
  in
  if not crosses then None else Some (crossing_time t0 v0 t1 v1 ~level)

let first_crossing ?after w ~level ~rising =
  let n = Array.length w.times in
  let after = match after with Some a -> a | None -> w.times.(0) in
  let rec scan i =
    if i >= n - 1 then None
    else
      let t0 = w.times.(i) and t1 = w.times.(i + 1) in
      if t1 < after then scan (i + 1)
      else
        let v0 = value_at w (Float.max t0 after) in
        let ts = Float.max t0 after in
        match segment_crossing ts v0 t1 w.values.(i + 1) ~level ~rising with
        | Some t when t >= after -> Some t
        | Some _ | None -> scan (i + 1)
  in
  scan 0

(* the crossing [crossings] lists last: the latest, and of equal times
   the later segment's *)
let last_crossing w ~level =
  let best = ref nan and found = ref false in
  for i = Array.length w.times - 2 downto 0 do
    let t0 = w.times.(i) and t1 = w.times.(i + 1) in
    let v0 = w.values.(i) and v1 = w.values.(i + 1) in
    if (v0 < level && v1 >= level) || (v0 > level && v1 <= level) then begin
      let t = crossing_time t0 v0 t1 v1 ~level in
      if (not !found) || Float.compare t !best > 0 then begin
        best := t;
        found := true
      end
    end
  done;
  if !found then Some !best else None

let crossings w ~level =
  let n = Array.length w.times in
  let acc = ref [] in
  for i = 0 to n - 2 do
    let t0 = w.times.(i) and t1 = w.times.(i + 1) in
    let v0 = w.values.(i) and v1 = w.values.(i + 1) in
    (match segment_crossing t0 v0 t1 v1 ~level ~rising:true with
     | Some t -> acc := (t, true) :: !acc
     | None -> ());
    (match segment_crossing t0 v0 t1 v1 ~level ~rising:false with
     | Some t -> acc := (t, false) :: !acc
     | None -> ())
  done;
  List.sort (fun (t1, _) (t2, _) -> compare t1 t2) (List.rev !acc)

let shift w dt =
  { w with times = Array.map (fun t -> t +. dt) w.times }

let map f w = { w with values = Array.map f w.values }

let extrema w =
  Array.fold_left
    (fun (mn, mx) v -> (Float.min mn v, Float.max mx v))
    (w.values.(0), w.values.(0))
    w.values

let duration w =
  let n = Array.length w.times in
  (w.times.(0), w.times.(n - 1))

let sample w ~t0 ~t1 ~n =
  if n < 2 then invalid_arg "Pwl.sample: n must be >= 2";
  Array.init n (fun i ->
      let t = t0 +. ((t1 -. t0) *. float_of_int i /. float_of_int (n - 1)) in
      (t, value_at w t))
