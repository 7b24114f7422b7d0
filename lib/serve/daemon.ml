(* The sizing daemon: a bounded queue of batch requests drained by a
   fixed pool of worker threads, all evaluating through ONE shared
   Eval.Ctx — one sharded cache (so concurrent batches hit each other's
   solver work), one metrics registry, one trace sink.

   Robustness model, in order of line of defence:

   - Admission control: the waiting queue has a fixed depth; a submit
     that finds it full gets an explicit 429-style ["rejected"] event
     and the connection closes.  Nothing ever blocks waiting for a
     slot, so saturation degrades loudly, never into a hang.

   - Deadlines: a request's [(deadline-s S)] becomes an absolute
     deadline, polled by the batch runner at job boundaries.  An expired request stops cleanly between jobs, keeps
     its journal, and answers ["deadline"]; resubmitting the same id
     resumes instead of recomputing.

   - Crash recovery: every request is spooled to disk before it is
     accepted ([<id>.spec]), journaled as it runs ([<id>.journal] via
     Runner.Journal), and its manifest written atomically
     ([<id>.manifest] via tmp+rename).  On startup the daemon scans the
     spool for specs without manifests and re-enqueues them; journal
     replay makes the recovered manifests byte-identical to an
     uninterrupted run.

   - Graceful drain: SIGTERM/SIGINT (or [max_requests], the test hook)
     stop the accept loop, close the queue, and let in-flight work
     finish before the process exits.

   Threading: connection handling and the worker pool are POSIX
   threads (they spend their time in I/O or waiting); the numeric work
   inside a job still fans out over domains via Par.Pool under the
   context's [jobs] budget.  The shared metrics registry is not
   thread-safe, so each request records into an Obs.shard that is
   merged under [mlock] when the request finishes — totals stay exact
   whatever the interleaving. *)

type endpoint = Unix_socket of string | Tcp of int

type config = {
  endpoint : endpoint;
  spool : string;
  queue_depth : int;
  workers : int;
  max_requests : int option;  (* drain after N finished requests *)
  recover_only : bool;        (* replay the spool, then exit *)
  read_timeout_s : float;
}

let default_config endpoint spool =
  { endpoint;
    spool;
    queue_depth = 16;
    workers = 2;
    max_requests = None;
    recover_only = false;
    read_timeout_s = 10.0 }

(* ---- spool paths -------------------------------------------------- *)

let spec_path cfg rid = Filename.concat cfg.spool (rid ^ ".spec")
let journal_path cfg rid = Filename.concat cfg.spool (rid ^ ".journal")
let manifest_path cfg rid = Filename.concat cfg.spool (rid ^ ".manifest")

let write_atomic path contents =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc contents;
      Out_channel.flush oc);
  Sys.rename tmp path

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ---- bounded queue ------------------------------------------------ *)

type ticket = {
  rid : string;
  deadline : float option;  (* absolute epoch seconds *)
  t_admit : float;          (* epoch seconds at admission: queue wait
                               and request latency both start here *)
  reply : string -> unit;   (* best-effort raw write to the client *)
  fin_lock : Mutex.t;
  fin_cond : Condition.t;
  mutable released : bool;  (* "accepted" has been sent; worker may talk *)
  mutable finished : bool;
}

module Q = struct
  type t = {
    items : ticket Queue.t;
    lock : Mutex.t;
    nonempty : Condition.t;
    capacity : int;
    mutable closed : bool;
  }

  let create capacity =
    { items = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      capacity;
      closed = false }

  let with_lock q f =
    Mutex.lock q.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock q.lock) f

  (* admission-controlled entry: full or draining is an explicit
     refusal, never a wait *)
  let try_push q t =
    with_lock q (fun () ->
        if q.closed then `Draining
        else if Queue.length q.items >= q.capacity then `Full
        else begin
          Queue.push t q.items;
          Condition.signal q.nonempty;
          `Ok
        end)

  (* recovery entry: spooled work predates this process's admission
     decisions, so it always loads (capacity governs new arrivals) *)
  let push_recovered q t =
    with_lock q (fun () ->
        Queue.push t q.items;
        Condition.signal q.nonempty)

  let close q =
    with_lock q (fun () ->
        q.closed <- true;
        Condition.broadcast q.nonempty)

  (* None only after [close] with an empty queue: drain semantics *)
  let pop q =
    with_lock q (fun () ->
        while Queue.is_empty q.items && not q.closed do
          Condition.wait q.nonempty q.lock
        done;
        if Queue.is_empty q.items then None else Some (Queue.pop q.items))

  let length q = with_lock q (fun () -> Queue.length q.items)
end

(* ---- daemon state ------------------------------------------------- *)

type t = {
  cfg : config;
  ctx : Eval.Ctx.t;
  obs : Obs.t;        (* shared registry; touch only under mlock *)
  lat : Latency.t;    (* rolling latency windows + slow log; mlock *)
  mlock : Mutex.t;
  queue : Q.t;
  active : (string, unit) Hashtbl.t;  (* rids queued or running; mlock *)
  shutdown : bool Atomic.t;
  wake_w : Unix.file_descr;  (* self-pipe: signal handler -> accept loop *)
  wake_r : Unix.file_descr;
  mutable in_flight : int;   (* mlock *)
  mutable completed : int;   (* mlock *)
}

let with_mlock d f =
  Mutex.lock d.mlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock d.mlock) f

let record d f = with_mlock d (fun () -> f d.obs)

let request_shutdown d =
  if not (Atomic.exchange d.shutdown true) then
    (* a single byte; the accept loop drains it and exits *)
    ignore (try Unix.write d.wake_w (Bytes.of_string "x") 0 1 with _ -> 0)

(* ---- per-request execution (worker threads) ----------------------- *)

let mark_finished t =
  Mutex.lock t.fin_lock;
  t.finished <- true;
  Condition.broadcast t.fin_cond;
  Mutex.unlock t.fin_lock

(* event ordering: a worker may dequeue a ticket before the admitting
   connection thread has written the "accepted" line; it must not start
   streaming fragments ahead of it *)
let release t =
  Mutex.lock t.fin_lock;
  t.released <- true;
  Condition.broadcast t.fin_cond;
  Mutex.unlock t.fin_lock

let await_released t =
  Mutex.lock t.fin_lock;
  while not t.released do
    Condition.wait t.fin_cond t.fin_lock
  done;
  Mutex.unlock t.fin_lock

let await_finished t =
  Mutex.lock t.fin_lock;
  while not t.finished do
    Condition.wait t.fin_cond t.fin_lock
  done;
  Mutex.unlock t.fin_lock

let execute d (t : ticket) =
  await_released t;
  let rid = t.rid in
  let finish_event line counter =
    t.reply line;
    record d (fun obs -> Obs.incr obs ("serve.requests." ^ counter))
  in
  match Runner.Spec.parse_file (spec_path d.cfg rid) with
  | Error e -> finish_event (Protocol.error ~rid ~message:e) "failed"
  | exception e ->
    finish_event
      (Protocol.error ~rid ~message:(Printexc.to_string e))
      "failed"
  | Ok spec ->
    (* private metrics shard: the registry is not thread-safe, so the
       request records locally and merges under mlock at the end *)
    let robs = Obs.shard d.obs in
    let rctx = Eval.Ctx.with_obs robs d.ctx in
    let on_fragment ~id ~status frag =
      t.reply
        (Protocol.fragment ~rid ~job:id
           ~status:(Runner.status_string status) ~frag)
    in
    let result =
      match
        Runner.run ~ctx:rctx ~journal:(journal_path d.cfg rid)
          ?deadline:t.deadline
          ~on_fragment spec
      with
      | r -> r
      | exception e -> Error (Printexc.to_string e)
    in
    with_mlock d (fun () -> Obs.merge_shard ~into:d.obs robs);
    (match result with
     | Error e -> finish_event (Protocol.error ~rid ~message:e) "failed"
     | Ok o when o.Runner.interrupted ->
       (* deadline hit between jobs; the journal stays for resume *)
       finish_event (Protocol.deadline ~rid) "deadline"
     | Ok o ->
       write_atomic (manifest_path d.cfg rid) o.Runner.manifest;
       t.reply
         (Protocol.manifest ~rid ~ok:o.Runner.ok
            ~degraded:o.Runner.degraded ~failed:o.Runner.failed
            ~bytes:(String.length o.Runner.manifest));
       t.reply o.Runner.manifest;
       record d (fun obs ->
           Obs.incr obs "serve.requests.completed";
           if o.Runner.failed > 0 then
             Obs.incr obs "serve.requests.completed_with_failures"))

(* every terminal answer — manifest, replay, rejection, error — counts
   toward [max_requests], so the test hook drains on "requests answered",
   not just "batches executed" *)
let count_finished d =
  let drain =
    with_mlock d (fun () ->
        d.completed <- d.completed + 1;
        match d.cfg.max_requests with
        | Some n -> d.completed >= n
        | None -> false)
  in
  if drain then request_shutdown d

let finish d t =
  mark_finished t;
  with_mlock d (fun () ->
      Hashtbl.remove d.active t.rid;
      d.in_flight <- d.in_flight - 1);
  count_finished d

(* per-request latency accounting, shared by every terminal path:
   queue wait is admit -> dequeue, latency is admit -> finish.  Both
   feed the cumulative registry histograms (so the totals survive in
   --metrics dumps) and the rolling windows behind /metrics; requests
   over the slow threshold also land in the slow log and on stderr. *)
let observe_request d (t : ticket) ~t_dequeue =
  let now = Unix.gettimeofday () in
  let latency_s = Float.max 0.0 (now -. t.t_admit) in
  let queue_wait_s = Float.max 0.0 (t_dequeue -. t.t_admit) in
  with_mlock d (fun () ->
      Obs.observe ~buckets:Latency.default_buckets d.obs "serve.latency_s"
        latency_s;
      Obs.observe ~buckets:Latency.default_buckets d.obs
        "serve.queue_wait_s" queue_wait_s;
      Latency.record d.lat ~now ~rid:t.rid ~latency_s ~queue_wait_s);
  if latency_s >= Latency.slow_threshold_s d.lat then
    Format.eprintf "mtsize serve: slow request %s: %.3fs (%.3fs queued)@."
      t.rid latency_s queue_wait_s

let worker_loop d () =
  let rec go () =
    match Q.pop d.queue with
    | None -> () (* queue closed and drained *)
    | Some t ->
      let t_dequeue = Unix.gettimeofday () in
      with_mlock d (fun () -> d.in_flight <- d.in_flight + 1);
      (try execute d t
       with e ->
         t.reply
           (Protocol.error ~rid:t.rid ~message:(Printexc.to_string e)));
      observe_request d t ~t_dequeue;
      finish d t;
      go ()
  in
  go ()

(* ---- connection handling ------------------------------------------ *)

let send_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      let w = Unix.write fd b off (n - off) in
      go (off + w)
  in
  go 0

(* a reply that outlives the client: once a write fails the client is
   gone; swallow and keep the request running (the manifest still lands
   in the spool) *)
let replier fd =
  let dead = ref false in
  fun s ->
    if not !dead then
      try send_all fd s with _ -> dead := true

let read_line fd =
  let b = Buffer.create 128 in
  let one = Bytes.create 1 in
  let rec go () =
    if Buffer.length b > Protocol.max_line_bytes then None
    else
      match Unix.read fd one 0 1 with
      | 0 -> None
      | _ ->
        (match Bytes.get one 0 with
         | '\n' -> Some (Buffer.contents b)
         | '\r' -> go ()
         | c ->
           Buffer.add_char b c;
           go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  match go () with exception _ -> None | r -> r

let read_exact fd n =
  let b = Bytes.create n in
  let rec go off =
    if off >= n then Some (Bytes.to_string b)
    else
      match Unix.read fd b off (n - off) with
      | 0 -> None
      | r -> go (off + r)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  match go 0 with exception _ -> None | r -> r

let healthz_body d =
  let queue = Q.length d.queue in
  with_mlock d (fun () ->
      Runner.Json.to_string
        (Runner.Json.Obj
           [ ("status", Runner.Json.Str "ok");
             ("queue", Runner.Json.Int queue);
             ("in_flight", Runner.Json.Int d.in_flight);
             ("completed", Runner.Json.Int d.completed);
             ( "draining",
               Runner.Json.Bool (Atomic.get d.shutdown) ) ])
      ^ "\n")

let serve_http d reply fd line =
  (* drain the request headers up to the blank line before answering:
     closing a socket with unread bytes in its receive queue makes
     Linux reset the connection, clobbering the response in flight *)
  let rec drain () =
    match read_line fd with None | Some "" -> () | Some _ -> drain ()
  in
  drain ();
  match Protocol.http_request_path line with
  | Some "/healthz" ->
    reply (Protocol.http_response ~status:200 ~body:(healthz_body d))
  | Some "/metrics" ->
    let now = Unix.gettimeofday () in
    let body =
      with_mlock d (fun () ->
          Obs.metrics_jsonl d.obs ^ Latency.to_jsonl d.lat ~now)
    in
    reply (Protocol.http_response ~status:200 ~body)
  | _ -> reply (Protocol.http_response ~status:404 ~body:"not found\n")

(* Admission for one parsed submit whose spec payload has been read.
   Returns the ticket to wait on, or None when the connection is
   already answered (rejected / replayed / error). *)
let admit d reply (s : Protocol.submit) spec_src =
  let rid = s.Protocol.id in
  let duplicate =
    with_mlock d (fun () ->
        if Hashtbl.mem d.active rid then true
        else begin
          (* reserve the id before any I/O so two racing submits of the
             same rid cannot both enter *)
          Hashtbl.replace d.active rid ();
          false
        end)
  in
  if duplicate then begin
    reply
      (Protocol.rejected ~rid ~reason:"duplicate request id (in flight)");
    record d (fun obs -> Obs.incr obs "serve.requests.rejected");
    count_finished d;
    None
  end
  else begin
    let release_id () = with_mlock d (fun () -> Hashtbl.remove d.active rid) in
    let mpath = manifest_path d.cfg rid in
    if Sys.file_exists mpath then begin
      (* finished request, possibly from a previous daemon life: replay
         the manifest bytes iff the spec matches *)
      release_id ();
      let same_spec =
        try read_file (spec_path d.cfg rid) = spec_src with _ -> true
      in
      if same_spec then begin
        let m = try read_file mpath with _ -> "" in
        if m = "" then
          reply (Protocol.error ~rid ~message:"manifest unreadable")
        else begin
          reply
            (Protocol.manifest ~rid ~ok:0 ~degraded:0 ~failed:0
               ~bytes:(String.length m));
          reply m;
          record d (fun obs -> Obs.incr obs "serve.requests.replayed")
        end
      end
      else
        reply
          (Protocol.error ~rid
             ~message:"request id was already used with a different spec");
      count_finished d;
      None
    end
    else begin
      match write_atomic (spec_path d.cfg rid) spec_src with
      | exception e ->
        release_id ();
        reply (Protocol.error ~rid ~message:(Printexc.to_string e));
        count_finished d;
        None
      | () ->
        let deadline =
          Option.map (fun s -> Unix.gettimeofday () +. s) s.Protocol.deadline_s
        in
        let t =
          { rid;
            deadline;
            t_admit = Unix.gettimeofday ();
            reply;
            fin_lock = Mutex.create ();
            fin_cond = Condition.create ();
            released = false;
            finished = false }
        in
        (match Q.try_push d.queue t with
         | `Ok ->
           reply (Protocol.accepted ~rid);
           release t;
           record d (fun obs -> Obs.incr obs "serve.requests.accepted");
           Some t
         | (`Full | `Draining) as why ->
           release_id ();
           (* an unstarted request leaves no trace: drop the spec so
              recovery does not resurrect work we refused (unless an
              older journal marks it as genuinely in progress) *)
           if not (Sys.file_exists (journal_path d.cfg rid)) then
             (try Sys.remove (spec_path d.cfg rid) with _ -> ());
           let reason =
             match why with
             | `Full -> "queue full"
             | `Draining -> "draining"
           in
           reply (Protocol.rejected ~rid ~reason);
           record d (fun obs -> Obs.incr obs "serve.requests.rejected");
           count_finished d;
           None)
    end
  end

let handle_connection d fd () =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      (try
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO d.cfg.read_timeout_s
       with _ -> ());
      let reply = replier fd in
      match read_line fd with
      | None -> ()
      | Some line when Protocol.is_http line -> serve_http d reply fd line
      | Some line ->
        (match Protocol.parse_submit line with
         | Error e -> reply (Protocol.error ~rid:"-" ~message:e)
         | Ok s ->
           (match read_exact fd s.Protocol.spec_bytes with
            | None ->
              reply
                (Protocol.error ~rid:s.Protocol.id
                   ~message:"spec payload truncated")
            | Some spec_src ->
              (match admit d reply s spec_src with
               | None -> ()
               | Some t ->
                 (* the worker owns all further events; wait for the
                    terminal one before closing the socket *)
                 await_finished t))))

(* ---- recovery ----------------------------------------------------- *)

let recover d =
  let entries = try Sys.readdir d.cfg.spool with Sys_error _ -> [||] in
  Array.sort compare entries;
  let n = ref 0 in
  Array.iter
    (fun name ->
      match Filename.chop_suffix_opt ~suffix:".spec" name with
      | Some rid
        when Protocol.valid_id rid
             && not (Sys.file_exists (manifest_path d.cfg rid)) ->
        let t =
          { rid;
            deadline = None;  (* the original deadline died with the
                                 process; finish the work *)
            t_admit = Unix.gettimeofday ();
            reply = ignore;
            fin_lock = Mutex.create ();
            fin_cond = Condition.create ();
            released = true;  (* no client to order events with *)
            finished = false }
        in
        with_mlock d (fun () -> Hashtbl.replace d.active rid ());
        Q.push_recovered d.queue t;
        incr n
      | _ -> ())
    entries;
  if !n > 0 then
    record d (fun obs -> Obs.incr obs ~by:!n "serve.requests.recovered");
  !n

(* ---- listener ----------------------------------------------------- *)

let listen_socket = function
  | Unix_socket path ->
    (try Unix.unlink path with _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | Tcp port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 64;
    fd

let accept_loop d listen =
  let rec go () =
    if not (Atomic.get d.shutdown) then begin
      match Unix.select [ listen; d.wake_r ] [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | rs, _, _ ->
        if List.mem d.wake_r rs then () (* woken to shut down *)
        else if List.mem listen rs then begin
          (match Unix.accept listen with
           | fd, _ -> ignore (Thread.create (handle_connection d fd) ())
           | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _)
             -> ());
          go ()
        end
        else go ()
    end
  in
  go ()

let run ?(ctx = Eval.Ctx.default) cfg =
  if cfg.queue_depth < 1 then Error "queue depth must be >= 1"
  else if cfg.workers < 1 then Error "workers must be >= 1"
  else begin
    match
      if not (Sys.file_exists cfg.spool) then Unix.mkdir cfg.spool 0o755
    with
    | exception Unix.Unix_error (e, _, _) ->
      Error ("spool: " ^ Unix.error_message e)
    | () ->
    if not (Sys.is_directory cfg.spool) then
      Error ("spool is not a directory: " ^ cfg.spool)
    else begin
      let wake_r, wake_w = Unix.pipe () in
      let d =
        { cfg;
          ctx;
          obs = ctx.Eval.Ctx.obs;
          lat = Latency.create ();
          mlock = Mutex.create ();
          queue = Q.create cfg.queue_depth;
          active = Hashtbl.create 64;
          shutdown = Atomic.make false;
          wake_w;
          wake_r;
          in_flight = 0;
          completed = 0 }
      in
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let on_signal _ = request_shutdown d in
      (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
       with _ -> ());
      (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
       with _ -> ());
      let recovered = recover d in
      let workers =
        List.init cfg.workers (fun _ -> Thread.create (worker_loop d) ())
      in
      let result =
        if cfg.recover_only then Ok recovered
        else
          match listen_socket cfg.endpoint with
          | exception Unix.Unix_error (e, _, arg) ->
            Error (Printf.sprintf "listen: %s (%s)" (Unix.error_message e) arg)
          | listen ->
            accept_loop d listen;
            (try Unix.close listen with _ -> ());
            (match cfg.endpoint with
             | Unix_socket path -> (try Unix.unlink path with _ -> ())
             | Tcp _ -> ());
            Ok recovered
      in
      (* drain: no new work, finish what is queued and in flight *)
      Q.close d.queue;
      List.iter Thread.join workers;
      (try Unix.close wake_r with _ -> ());
      (try Unix.close wake_w with _ -> ());
      result
    end
  end
