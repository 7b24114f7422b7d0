(* Set-up, the closed timed loop and tear-down for one workload.

   One client, one operation in flight: the runner workloads call
   [Runner.run] on the calling thread; serve-repeat submits to a daemon
   started in this process with one worker thread, so at most two
   threads are ever runnable. *)

module W = Workload

let work_dir = ".perfbench"

type daemon = {
  sock : string;
  thread : Thread.t;
  spool : string;
}

type env = {
  tag : string;              (* unique per set-up: request ids, spool *)
  tbl : W.circuits;
  ctx : Eval.Ctx.t;          (* the run's one context: cache on, jobs 1 *)
  cache : Eval.Cache.t;
  daemon : daemon option;
  bases : W.op array;        (* serve-repeat: the resubmitted job files *)
  base_answers : W.answer array;
  ops : W.op array;          (* the run's operations, in order *)
}

(* Operations per second of each workload on the reference host (see
   README.md, "Measured per-operation costs").  A run does a fixed
   number of operations, [seconds] worth at this rate, so [wall_s]
   measures speed and every run does the same work. *)
let nominal_rate = function
  | W.Hunt_bp -> 32.0
  | W.Select_sta -> 15.0
  | W.Anchor_spice -> 45.0
  | W.Serve_repeat -> 330.0

(* whole rounds of the workload's templates, and at least 100
   operations so that ten samples lie beyond the p90 *)
let op_count w ~seconds =
  let p = W.period w in
  let rounds n = (n + p - 1) / p in
  p * max (rounds 100) (rounds (int_of_float (seconds *. nominal_rate w)))

let gen_op w tbl ~seed ~bases i =
  match w with
  | W.Serve_repeat ->
    (match W.serve_repeat_of ~seed i with
     | Some b -> { (bases.(b)) with W.base = Some b }
     | None -> W.op w tbl ~seed i)
  | w -> W.op w tbl ~seed i

(* ---- the daemon -------------------------------------------------- *)

let http_get path_sock path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path_sock) with
  | exception Unix.Unix_error _ -> Unix.close fd; None
  | () ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let req = Printf.sprintf "GET %s HTTP/1.0\n\n" path in
        ignore (Unix.write_substring fd req 0 (String.length req));
        let b = Buffer.create 4096 and chunk = Bytes.create 4096 in
        let rec go () =
          match Unix.read fd chunk 0 4096 with
          | 0 -> ()
          | n -> Buffer.add_subbytes b chunk 0 n; go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        in
        go ();
        let s = Buffer.contents b in
        let ok = String.length s >= 12 && String.sub s 9 3 = "200" in
        if not ok then None
        else
          match Util.find_sub s "\r\n\r\n" with
          | Some i -> Some (String.sub s (i + 4) (String.length s - i - 4))
          | None -> None)

let start_daemon ctx ~tag =
  let spool = Filename.concat work_dir (tag ^ ".spool") in
  let sock = Filename.concat work_dir (tag ^ ".sock") in
  let cfg =
    { (Serve.Daemon.default_config (Serve.Daemon.Unix_socket sock) spool) with
      Serve.Daemon.workers = 1 }
  in
  let thread =
    Thread.create
      (fun () ->
        match Serve.Daemon.run ~ctx cfg with
        | Ok _ -> ()
        | Error e -> prerr_endline ("perfbench: daemon: " ^ e))
      ()
  in
  let deadline = Util.now () +. 30.0 in
  let rec wait () =
    match http_get sock "/healthz" with
    | Some _ -> ()
    | None ->
      if Util.now () > deadline then failwith "daemon did not come up";
      Thread.delay 0.002;
      wait ()
  in
  wait ();
  { sock; thread; spool }

(* SIGTERM is the daemon's drain signal; restore the default
   disposition once it has drained *)
let stop_daemon d =
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  Thread.join d.thread;
  Sys.set_signal Sys.sigterm Sys.Signal_default;
  Sys.set_signal Sys.sigint Sys.Signal_default;
  Util.rm_rf d.spool

let submit d ~rid text =
  match
    Serve.Client.submit (Serve.Daemon.Unix_socket d.sock) ~rid ~spec:text ()
  with
  | Ok (Serve.Client.Manifest { manifest; failed }) ->
    { W.manifest; clean = not failed }
  | Ok (Serve.Client.Rejected m | Serve.Client.Remote_error m) ->
    { W.manifest = m; clean = false }
  | Ok Serve.Client.Deadline -> { W.manifest = "deadline"; clean = false }
  | Error m -> { W.manifest = m; clean = false }

(* ---- one operation ----------------------------------------------- *)

let rid_counter = ref 0

let exec env (o : W.op) =
  match env.daemon with
  | Some d ->
    incr rid_counter;
    submit d ~rid:(Printf.sprintf "%s-%d" env.tag !rid_counter) o.W.text
  | None ->
    let obs = env.ctx.Eval.Ctx.obs in
    (match
       Obs.with_span obs "bench.parse" (fun () ->
           Runner.Spec.parse_string o.W.text)
     with
     | Error e -> { W.manifest = e; clean = false }
     | Ok spec ->
       let ctx =
         match o.W.fast with
         | `Off -> env.ctx
         | f -> Eval.Ctx.with_fast f env.ctx
       in
       (match
          Obs.with_span obs "bench.runner" (fun () -> Runner.run ~ctx spec)
        with
        | Ok out ->
          { W.manifest = out.Runner.manifest;
            clean = out.Runner.ok = out.Runner.total }
        | Error e -> { W.manifest = e; clean = false }))

(* ---- set-up and tear-down ---------------------------------------- *)

let setup_count = ref 0

(* Everything before the first timed operation: the inputs, the
   circuits, the daemon, and the warm-ups. *)
let setup w ~seed ~count ~obs =
  incr setup_count;
  let tag = Printf.sprintf "p%d-%d" (Unix.getpid ()) !setup_count in
  Util.mkdir_p work_dir;
  let tbl : W.circuits = Hashtbl.create 8 in
  let is_serve = w = W.Serve_repeat in
  let bases =
    if is_serve then Array.init W.serve_bases (W.serve_base tbl seed)
    else [||]
  in
  let ops = Array.init count (gen_op w tbl ~seed ~bases) in
  (* the CLI's default cache: [mtsize run] one stripe, [mtsize serve]
     sixteen *)
  let cache =
    if is_serve then Eval.Cache.create ~shards:16 () else Eval.Cache.create ()
  in
  (* like [mtsize serve], the daemon always keeps a live registry for
     /metrics *)
  let obs = if is_serve && not (Obs.enabled obs) then Obs.create () else obs in
  let ctx = Eval.Ctx.(default |> with_cache cache |> with_obs obs) in
  let daemon = if is_serve then Some (start_daemon ctx ~tag) else None in
  let env =
    { tag; tbl; ctx; cache; daemon; bases; base_answers = [||]; ops }
  in
  if is_serve then
    { env with base_answers = Array.map (exec env) bases }
  else begin
    List.iter (fun o -> ignore (exec env o)) (W.warmups w tbl);
    env
  end

let teardown env = Option.iter stop_daemon env.daemon

(* ---- the timed loop ---------------------------------------------- *)

type pass = {
  ops : (W.op * W.answer) array;  (* in execution order *)
  lat : float array;              (* seconds per operation *)
  wall : float;
  cpu : float;
  heap_mb : float;
}

(* Closed loop over the set-up's operations, one in flight. *)
let timed ?(after_op = fun (_ : W.op) -> ()) env =
  let obs = env.ctx.Eval.Ctx.obs in
  let n = Array.length env.ops in
  let lat = Array.make n 0.0 in
  let t0 = Util.now () and c0 = Util.cpu () in
  let answers =
    Array.mapi
      (fun i o ->
        let ts = Util.now () in
        let a = Obs.with_span obs "bench.op" (fun () -> exec env o) in
        lat.(i) <- Util.now () -. ts;
        after_op o;
        a)
      env.ops
  in
  let wall = Util.now () -. t0 and cpu = Util.cpu () -. c0 in
  { ops = Array.map2 (fun o a -> (o, a)) env.ops answers;
    lat;
    wall;
    cpu;
    heap_mb = Util.peak_heap_mb () }

(* ---- answer checks ----------------------------------------------- *)

(* Per operation: status ok and the independent check passed.  A
   serve-repeat resubmission must be byte-identical to the first
   manifest of its spec, which is itself checked once. *)
let verdicts env (p : pass) =
  let base_ok =
    Array.mapi
      (fun b a -> a.W.clean && W.check env.tbl env.bases.(b) a)
      env.base_answers
  in
  Array.map
    (fun ((o : W.op), (a : W.answer)) ->
      a.W.clean
      &&
      match o.W.base with
      | Some b ->
        base_ok.(b) && String.equal a.W.manifest env.base_answers.(b).W.manifest
      | None -> W.check env.tbl o a)
    p.ops
