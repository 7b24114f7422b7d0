(* Call-tree profiler over the span sink.  Nothing here records — a
   profile is a pure aggregation of [Trace.events], so enabling it
   costs exactly one pass over the already-collected spans at exit.

   Reconstruction: events are sorted by (ts, tid, depth) and within one
   tid a span strictly contains its children, so replaying a tid's
   stream while keeping a frame-per-depth array rebuilds every span's
   ancestor path (the parent of an event at depth d is whatever event
   most recently occupied depth d-1 — its start precedes the child's,
   so it was already replayed).  Self time falls out of the same pass:
   a span's direct children each subtract their duration from it.

   Two aggregation axes, deliberately different:
   - by full path — the flamegraph view.  Paths are NOT jobs-invariant:
     [Par.Pool] runs jobs=1 inline (worker spans nest under the
     caller's stack) but spawns domains at jobs>1 (worker spans root at
     their own tid), so the same work lands on different paths.
   - by label — calls per span name.  The same spans are recorded no
     matter how they are scheduled, so per-label call counts ARE
     jobs-invariant; {!golden} prints exactly these (no timings), which
     is what the invariance tests pin. *)

type node = {
  path : string list;                 (* root-first label path *)
  calls : int;
  total_s : float;
  self_s : float;
}

type t = { by_path : node list (* sorted by path *) }

let empty = { by_path = [] }

let path_key = String.concat ";"

let of_events (events : Trace.event list) =
  if events = [] then empty
  else begin
    (* partition by tid, preserving the global (ts, depth) order *)
    let tids = Hashtbl.create 8 in
    List.iter
      (fun (e : Trace.event) ->
        let q =
          match Hashtbl.find_opt tids e.Trace.tid with
          | Some q -> q
          | None ->
            let q = Queue.create () in
            Hashtbl.add tids e.Trace.tid q;
            q
        in
        Queue.add e q)
      events;
    (* key -> (path, calls, total, child_total) *)
    let agg : (string, string list * int ref * float ref * float ref)
        Hashtbl.t =
      Hashtbl.create 64
    in
    let touch path =
      let key = path_key path in
      match Hashtbl.find_opt agg key with
      | Some cell -> cell
      | None ->
        let cell = (path, ref 0, ref 0.0, ref 0.0) in
        Hashtbl.add agg key cell;
        cell
    in
    Hashtbl.iter
      (fun _tid q ->
        let frames = ref (Array.make 8 "") in
        Queue.iter
          (fun (e : Trace.event) ->
            let d = e.Trace.depth in
            if d >= Array.length !frames then begin
              let grown = Array.make (2 * (d + 1)) "" in
              Array.blit !frames 0 grown 0 (Array.length !frames);
              frames := grown
            end;
            !frames.(d) <- e.Trace.name;
            let path =
              Array.to_list (Array.sub !frames 0 (d + 1))
            in
            let _, calls, total, _ = touch path in
            incr calls;
            total := !total +. e.Trace.dur;
            if d > 0 then begin
              let parent = Array.to_list (Array.sub !frames 0 d) in
              let _, _, _, child = touch parent in
              child := !child +. e.Trace.dur
            end)
          q)
      tids;
    let by_path =
      Hashtbl.fold
        (fun _key (path, calls, total, child) acc ->
          { path;
            calls = !calls;
            total_s = !total;
            self_s = Float.max 0.0 (!total -. !child) }
          :: acc)
        agg []
      |> List.sort (fun a b -> compare a.path b.path)
    in
    { by_path }
  end

let of_trace tr = of_events (Trace.events tr)
let paths t = t.by_path

let labels t =
  let agg = Hashtbl.create 32 in
  List.iter
    (fun n ->
      let name = match List.rev n.path with leaf :: _ -> leaf | [] -> "" in
      let calls, total, self =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt agg name)
      in
      Hashtbl.replace agg name
        (calls + n.calls, total +. n.total_s, self +. n.self_s))
    t.by_path;
  Hashtbl.fold (fun name (c, tt, s) acc -> (name, c, tt, s) :: acc) agg []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)

let top ?(k = 8) t =
  let ranked =
    List.sort
      (fun a b ->
        match Float.compare b.self_s a.self_s with
        | 0 -> compare a.path b.path
        | c -> c)
      t.by_path
  in
  List.filteri (fun i _ -> i < k) ranked

let to_collapsed t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun n ->
      let us = int_of_float (Float.round (n.self_s *. 1e6)) in
      Printf.bprintf buf "%s %d\n" (path_key n.path) (max 0 us))
    t.by_path;
  Buffer.contents buf

let golden t =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, calls, _, _) -> Printf.bprintf buf "%s %d\n" name calls)
    (labels t);
  Buffer.contents buf
