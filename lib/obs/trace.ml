(* Span sink + Chrome trace_event export + the trace-check validator.

   Events are appended under a mutex (worker domains share one sink);
   per-domain nesting depth lives in domain-local storage, so spans in
   one domain always close LIFO and — with the non-decreasing Clock —
   nest properly by construction.  The validator re-derives that
   property from a written file, so a trace stands on its own. *)

type event = {
  name : string;
  tid : int;
  ts : float;
  dur : float;
  depth : int;
  args : (string * float) list;
}

type t = {
  lock : Mutex.t;
  mutable evs : event list; (* newest first *)
  mutable n : int;
}

let depth_key = Domain.DLS.new_key (fun () -> ref 0)

let create () = { lock = Mutex.create (); evs = []; n = 0 }

let push t e =
  Mutex.protect t.lock (fun () ->
      t.evs <- e :: t.evs;
      t.n <- t.n + 1)

let with_span t ?args name f =
  let d = Domain.DLS.get depth_key in
  let my_depth = !d in
  d := my_depth + 1;
  let ts = Clock.now () in
  Fun.protect
    ~finally:(fun () ->
      let dur = Clock.elapsed_since ts in
      d := my_depth;
      push t
        { name;
          tid = (Domain.self () :> int);
          ts;
          dur;
          depth = my_depth;
          args = (match args with None -> [] | Some g -> g ()) })
    f

let events t =
  let l = Mutex.protect t.lock (fun () -> t.evs) in
  List.sort
    (fun a b ->
      match Float.compare a.ts b.ts with
      | 0 -> (
        match compare a.tid b.tid with
        | 0 -> compare a.depth b.depth
        | c -> c)
      | c -> c)
    l

(* ---- export ------------------------------------------------------- *)

let args_json args =
  String.concat ","
    (List.map
       (fun (k, v) -> Printf.sprintf {|"%s":%s|} (Json.escape k) (Json.number v))
       args)

let to_chrome_json ?metrics t =
  let evs = events t in
  let t0 = match evs with [] -> 0.0 | e :: _ -> e.ts in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf {|{"traceEvents":[|};
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        {|{"name":"%s","cat":"mtsize","ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s|}
        (Json.escape e.name) e.tid
        (Json.number ((e.ts -. t0) *. 1e6))
        (Json.number (e.dur *. 1e6));
      if e.args <> [] then Printf.bprintf buf {|,"args":{%s}|} (args_json e.args);
      Buffer.add_char buf '}')
    evs;
  Buffer.add_string buf {|],"displayTimeUnit":"ms","otherData":{|};
  (match metrics with
   | None -> ()
   | Some m ->
     let counters =
       List.filter_map
         (function
           | name, Metrics.Count n ->
             Some (Printf.sprintf {|"%s":%d|} (Json.escape name) n)
           | _ -> None)
         (Metrics.dump m)
     in
     Printf.bprintf buf {|"counters":{%s}|} (String.concat "," counters));
  Buffer.add_string buf "}}";
  Buffer.contents buf

let write_chrome ?metrics t file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_chrome_json ?metrics t))


(* ---- validation --------------------------------------------------- *)

open Json

type check = {
  events_checked : int;
  tids : int;
  reconciled : (string * int * int) list;
}

(* microsecond slop for float-rounded nesting comparisons *)
let eps = 0.5

let spice_names = [ "spice.dc"; "spice.transient" ]

let validate_string text =
  match parse text with
  | exception Parse msg -> Error [ "not valid JSON: " ^ msg ]
  | json ->
    let errors = ref [] in
    let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
    (match field "traceEvents" json with
     | Some (J_arr raw) ->
       (* decode the complete ("X") events; tolerate other phases *)
       let xs =
         List.filteri
           (fun _ e -> str_field "ph" e = Some "X")
           (List.filter (function J_obj _ -> true | _ -> false) raw)
       in
       if List.length raw > 0 && xs = [] then err "no complete (ph=X) events";
       let decoded =
         List.filter_map
           (fun e ->
             match
               ( str_field "name" e,
                 num_field "ts" e,
                 num_field "dur" e,
                 num_field "tid" e,
                 num_field "pid" e )
             with
             | Some name, Some ts, Some dur, Some tid, Some _ ->
               if dur < 0.0 then begin
                 err "event %s: negative dur" name;
                 None
               end
               else if ts < -.eps then begin
                 err "event %s: negative ts" name;
                 None
               end
               else
                 let args =
                   match field "args" e with
                   | Some (J_obj l) ->
                     List.filter_map
                       (function k, J_num v -> Some (k, v) | _ -> None)
                       l
                   | _ -> []
                 in
                 Some (name, int_of_float tid, ts, dur, args)
             | _ ->
               err "event missing name/ts/dur/tid/pid";
               None)
           xs
       in
       (* group by tid and check proper nesting with a span stack;
          count spans that have no enclosing spice-analysis span and
          sum their newton/factorization args for reconciliation *)
       let by_tid = Hashtbl.create 8 in
       List.iter
         (fun ((_, tid, _, _, _) as e) ->
           let l =
             match Hashtbl.find_opt by_tid tid with Some l -> l | None -> []
           in
           Hashtbl.replace by_tid tid (e :: l))
         decoded;
       let top_counts = Hashtbl.create 8 in
       let top_sums = Hashtbl.create 8 in
       let bump tbl k v =
         let cur =
           match Hashtbl.find_opt tbl k with Some c -> c | None -> 0
         in
         Hashtbl.replace tbl k (cur + v)
       in
       let bumpf tbl k v =
         let cur =
           match Hashtbl.find_opt tbl k with Some c -> c | None -> 0.0
         in
         Hashtbl.replace tbl k (cur +. v)
       in
       Hashtbl.iter
         (fun tid evs ->
           let sorted =
             List.sort
               (fun (_, _, ts1, d1, _) (_, _, ts2, d2, _) ->
                 match Float.compare ts1 ts2 with
                 | 0 -> Float.compare d2 d1 (* longer first: parents *)
                 | c -> c)
               evs
           in
           (* stack of (name, end time, is-spice) *)
           let stack = ref [] in
           List.iter
             (fun (name, _, ts, dur, args) ->
               let rec unwind = function
                 | (_, e_end, _) :: rest when ts >= e_end -. eps ->
                   unwind rest
                 | st -> st
               in
               stack := unwind !stack;
               (match !stack with
                | (pname, p_end, _) :: _ when ts +. dur > p_end +. eps ->
                  err
                    "tid %d: span %s [%g..%g] overlaps end of enclosing %s \
                     (%g)"
                    tid name ts (ts +. dur) pname p_end
                | _ -> ());
               let in_spice =
                 List.exists (fun (_, _, sp) -> sp) !stack
               in
               if not in_spice then begin
                 bump top_counts name 1;
                 List.iter
                   (fun (k, v) ->
                     if k = "newton" || k = "factorizations" then
                       bumpf top_sums (name ^ "." ^ k) v)
                   args
               end;
               stack :=
                 (name, ts +. dur, List.mem name spice_names) :: !stack)
             sorted)
         by_tid;
       let reconciled = ref [] in
       (match field "otherData" json with
        | Some od ->
          let counter name =
            match field "counters" od with
            | Some c -> (
              match field name c with
              | Some (J_num v) -> Some (int_of_float v)
              | _ -> None)
            | None -> None
          in
          let pair desc spans counter_name =
            match counter counter_name with
            | None -> ()
            | Some expected ->
              reconciled := (desc, spans, expected) :: !reconciled;
              if abs (spans - expected) > 1 then
                err "%s: span total %d vs counter %s = %d" desc spans
                  counter_name expected
          in
          let top name =
            match Hashtbl.find_opt top_counts name with
            | Some c -> c
            | None -> 0
          in
          let topf key =
            match Hashtbl.find_opt top_sums key with
            | Some v -> int_of_float (Float.round v)
            | None -> 0
          in
          pair "dc analyses" (top "spice.dc") "spice.dc.analyses";
          pair "transient analyses"
            (top "spice.transient")
            "spice.transient.analyses";
          pair "breakpoint simulations" (top "bp.simulate") "bp.simulations";
          pair "newton iterations"
            (topf "spice.dc.newton" + topf "spice.transient.newton")
            "spice.newton_iterations";
          pair "factorizations"
            (topf "spice.dc.factorizations"
             + topf "spice.transient.factorizations")
            "spice.factorizations"
        | None -> ());
       if !errors = [] then
         Ok
           { events_checked = List.length decoded;
             tids = Hashtbl.length by_tid;
             reconciled = List.rev !reconciled }
       else Error (List.rev !errors)
     | _ -> Error [ "missing traceEvents array" ])

let validate_file file =
  match
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error [ "cannot read file: " ^ msg ]
  | text -> validate_string text
