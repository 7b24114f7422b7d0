(* Clocks, a geometric mean and small file helpers. *)

let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let geomean xs =
  exp (Phys.Stats.summarize (Array.map log xs)).Phys.Stats.mean

(* mean seconds per call of [f], repeating until [budget_s] has passed
   (at least [min_calls] calls) *)
let time_per_call ?(min_calls = 3) ~budget_s f =
  let t0 = now () in
  let rec go n =
    f n;
    let n = n + 1 in
    let dt = now () -. t0 in
    if n >= min_calls && dt >= budget_s then dt /. float n else go n
  in
  go 0

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> (try Unix.unlink path with Unix.Unix_error _ -> ())

let mkdir_p path =
  if not (Sys.file_exists path) then Unix.mkdir path 0o755

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float s.Gc.top_heap_words *. float (Sys.word_size / 8) /. 1048576.0

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0
