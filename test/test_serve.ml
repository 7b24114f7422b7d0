(* Serve-daemon suite: in-process daemon (worker threads + a real Unix
   socket in a temp dir) exercised through the real client.  Covers the
   wire protocol, admission control under saturation, per-request
   deadlines, spool recovery, manifest replay, and the headline
   concurrency property — K concurrent clients submitting the same spec
   against one shared sharded cache all receive manifests byte-identical
   to a direct Runner.run, across shard counts and worker counts. *)

let spec_src =
  {|(batch
  (tech 07um)
  (defaults (engine bp) (jobs 1))
  (circuit c2 chain)
  (circuit a1 adder1)
  (job sweep s1 (circuit c2) (wls 5 20))
  (job size z1 (circuit a1) (target 0.05))
  (job worst-vectors w1 (circuit a1) (wl 10) (top 2))
  (job monte-carlo m1 (circuit c2) (wl 10) (n 4) (seed 7)))|}

let reference_manifest =
  lazy
    (match Runner.Spec.parse_string spec_src with
     | Error e -> Alcotest.failf "spec: %s" e
     | Ok spec ->
       (match Runner.run spec with
        | Ok o -> o.Runner.manifest
        | Error e -> Alcotest.failf "reference run: %s" e))

let temp_dir () =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mtsize-serve-%d-%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Unix.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* Start a daemon in a thread; returns (endpoint, join).  [max_requests]
   bounds its life so join terminates. *)
let start_daemon ?(queue_depth = 16) ?(workers = 2) ?(shards = 4) ?jobs
    ~dir ~max_requests () =
  let sock = Filename.concat dir "d.sock" in
  let cfg =
    { (Serve.Daemon.default_config (Serve.Daemon.Unix_socket sock)
         (Filename.concat dir "spool"))
      with
      queue_depth;
      workers;
      max_requests = Some max_requests }
  in
  let cache = Eval.Cache.create ~shards () in
  let ctx =
    Eval.Ctx.default
    |> Eval.Ctx.with_cache cache
    |> fun c -> match jobs with Some j -> Eval.Ctx.with_jobs j c | None -> c
  in
  let result = ref (Ok 0) in
  let th = Thread.create (fun () -> result := Serve.Daemon.run ~ctx cfg) () in
  (* wait for the socket to appear *)
  let rec wait n =
    if n = 0 then Alcotest.fail "daemon socket never appeared";
    if not (Sys.file_exists sock) then (Thread.delay 0.02; wait (n - 1))
  in
  wait 250;
  ( Serve.Daemon.Unix_socket sock,
    fun () ->
      Thread.join th;
      !result )

let submit_ok ?deadline_s endpoint ~rid ~spec =
  match Serve.Client.submit endpoint ~rid ?deadline_s ~spec () with
  | Ok o -> o
  | Error e -> Alcotest.failf "submit %s: %s" rid e

(* ---- basic round trip + replay ------------------------------------ *)

let test_round_trip_and_replay () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (* two completions: the fresh run and the replay *)
      let ep, join = start_daemon ~dir ~max_requests:2 () in
      (match submit_ok ep ~rid:"r1" ~spec:spec_src with
       | Serve.Client.Manifest { manifest; failed } ->
         Alcotest.(check bool) "no failures" false failed;
         Alcotest.(check string)
           "manifest = direct run" (Lazy.force reference_manifest) manifest
       | _ -> Alcotest.fail "expected a manifest");
      (* same id again: replayed from the spool, byte-identical *)
      (match submit_ok ep ~rid:"r1" ~spec:spec_src with
       | Serve.Client.Manifest { manifest; _ } ->
         Alcotest.(check string)
           "replay = direct run" (Lazy.force reference_manifest) manifest
       | _ -> Alcotest.fail "expected a replayed manifest");
      match join () with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "daemon: %s" e)

(* ---- HTTP endpoints on the same socket ----------------------------- *)

(* A real HTTP client sends headers after the request line; the daemon
   must drain them before answering, or closing the socket with unread
   bytes resets the connection and clobbers the response (a regression
   caught with curl-shaped requests). *)
let http_get endpoint path =
  let fd =
    match endpoint with
    | Serve.Daemon.Unix_socket p ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX p);
      fd
    | Serve.Daemon.Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      fd
  in
  let req =
    Printf.sprintf "GET %s HTTP/1.0\r\nHost: test\r\nAccept: */*\r\n\r\n" path
  in
  let _ = Unix.write_substring fd req 0 (String.length req) in
  let b = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let rec go () =
    match Unix.read fd chunk 0 1024 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      go ()
  in
  go ();
  Unix.close fd;
  Buffer.contents b

let has_sub s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ---- admission control under saturation --------------------------- *)

(* One worker, one queue slot, four submissions.  The first batch's
   circuit is a FIFO, so its worker blocks in the netlist parser until
   the test writes the netlist.  With that batch in flight and the
   second queued (read off /healthz), the last two must be refused with
   "queue full", whatever the timing; both admitted batches then finish. *)
let test_saturation_rejects () =
  let dir = temp_dir () in
  let fifo = Filename.concat dir "latch.net" in
  Unix.mkfifo fifo 0o600;
  Fun.protect
    ~finally:(fun () ->
      (* a failed check must not leave the worker blocked on the latch:
         opening the write end hands it an empty netlist *)
      (try Unix.close (Unix.openfile fifo [ O_WRONLY; O_NONBLOCK ] 0)
       with Unix.Unix_error _ -> ());
      rm_rf dir)
    (fun () ->
      let ep, join =
        start_daemon ~dir ~queue_depth:1 ~workers:1 ~max_requests:4 ()
      in
      let submit rid circuit =
        Serve.Client.submit ep ~rid ()
          ~spec:
            (Printf.sprintf
               "(batch (tech 07um) (circuit c %S) (job sweep s (circuit c) \
                (wls 10)))"
               circuit)
      in
      let in_thread rid circuit =
        let out = ref (Error "no answer") in
        let th = Thread.create (fun () -> out := submit rid circuit) () in
        fun () -> Thread.join th; !out
      in
      let rec await_health what n =
        if n = 0 then Alcotest.failf "daemon never reached %s" what;
        if not (has_sub (http_get ep "/healthz") what) then begin
          Thread.delay 0.01;
          await_health what (n - 1)
        end
      in
      let first = in_thread "sat0" fifo in
      await_health {|"queue":0,"in_flight":1|} 1000;
      let second = in_thread "sat1" "chain" in
      await_health {|"queue":1,"in_flight":1|} 1000;
      List.iter
        (fun rid ->
          match submit rid "chain" with
          | Ok (Serve.Client.Rejected reason) ->
            Alcotest.(check string) "rejection reason" "queue full" reason
          | _ -> Alcotest.fail "expected a queue-full rejection")
        [ "sat2"; "sat3" ];
      Out_channel.with_open_text fifo (fun oc ->
          output_string oc "input a\ngate inv y a\nload y 50f\noutput y\n");
      List.iter
        (fun answer ->
          match answer () with
          | Ok (Serve.Client.Manifest { failed; _ }) ->
            Alcotest.(check bool) "batch succeeded" false failed
          | Ok (Serve.Client.Remote_error m) | Error m ->
            Alcotest.failf "unexpected error: %s" m
          | Ok _ -> Alcotest.fail "expected a manifest")
        [ first; second ];
      ignore (join ()))

(* ---- deadlines ----------------------------------------------------- *)

let test_deadline_then_resume () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let ep, join = start_daemon ~dir ~workers:1 ~max_requests:2 () in
      (* an already-expired deadline: the runner stops at the first job
         boundary, having executed nothing *)
      (match submit_ok ep ~rid:"dl" ~deadline_s:1e-9 ~spec:spec_src with
       | Serve.Client.Deadline -> ()
       | Serve.Client.Manifest _ ->
         Alcotest.fail "deadline ignored (manifest arrived)"
       | _ -> Alcotest.fail "expected deadline event");
      (* resubmit without a deadline: resumes from the journal and the
         result is still byte-identical to an uninterrupted run *)
      (match submit_ok ep ~rid:"dl" ~spec:spec_src with
       | Serve.Client.Manifest { manifest; _ } ->
         Alcotest.(check string)
           "resumed manifest = direct run"
           (Lazy.force reference_manifest) manifest
       | _ -> Alcotest.fail "expected a manifest on resume");
      ignore (join ()))

(* ---- crash recovery from the spool -------------------------------- *)

let test_spool_recovery () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (* fabricate a crashed daemon's spool: a spec with a journal that
         holds only a prefix of the batch (exactly what a SIGKILL
         mid-request leaves behind, thanks to journal framing) *)
      let spool = Filename.concat dir "spool" in
      Unix.mkdir spool 0o755;
      let spec =
        match Runner.Spec.parse_string spec_src with
        | Ok s -> s
        | Error e -> Alcotest.failf "spec: %s" e
      in
      Out_channel.with_open_bin (Filename.concat spool "crashed.spec")
        (fun oc -> Out_channel.output_string oc spec_src);
      (match
         Runner.run ~journal:(Filename.concat spool "crashed.journal")
           ~fresh:true ~stop_after:2 spec
       with
       | Ok o -> Alcotest.(check bool) "interrupted" true o.Runner.interrupted
       | Error e -> Alcotest.failf "prefix run: %s" e);
      (* recover-only daemon: replays the journal, finishes the rest,
         writes the manifest, exits *)
      let cfg =
        { (Serve.Daemon.default_config
             (Serve.Daemon.Unix_socket (Filename.concat dir "unused.sock"))
             spool)
          with
          recover_only = true;
          workers = 1 }
      in
      (match Serve.Daemon.run cfg with
       | Ok recovered -> Alcotest.(check int) "one recovered" 1 recovered
       | Error e -> Alcotest.failf "recovery daemon: %s" e);
      let recovered_manifest =
        In_channel.with_open_bin
          (Filename.concat spool "crashed.manifest")
          In_channel.input_all
      in
      Alcotest.(check string)
        "recovered manifest = uninterrupted run"
        (Lazy.force reference_manifest) recovered_manifest)

(* ---- protocol corner cases ---------------------------------------- *)

let test_protocol_validation () =
  (match Serve.Protocol.parse_submit "(submit (id ok-1) (spec-bytes 10))" with
   | Ok s ->
     Alcotest.(check string) "id" "ok-1" s.Serve.Protocol.id;
     Alcotest.(check int) "bytes" 10 s.Serve.Protocol.spec_bytes;
     Alcotest.(check bool) "no deadline" true (s.Serve.Protocol.deadline_s = None)
   | Error e -> Alcotest.fail e);
  let rejects what line =
    match Serve.Protocol.parse_submit line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s was accepted" what
  in
  rejects "path-traversal id" "(submit (id ../evil) (spec-bytes 10))";
  rejects "empty id" "(submit (id \"\") (spec-bytes 10))";
  rejects "missing bytes" "(submit (id a))";
  rejects "negative bytes" "(submit (id a) (spec-bytes -1))";
  rejects "oversized bytes"
    (Printf.sprintf "(submit (id a) (spec-bytes %d))"
       (Serve.Protocol.max_spec_bytes + 1));
  rejects "unknown field" "(submit (id a) (spec-bytes 1) (magic 3))";
  rejects "not a submit" "(metrics)"

(* a daemon-side spec error arrives whole: its message quotes the bad
   name, so the event line carries escaped quotes *)
let test_remote_error_message () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let ep, join = start_daemon ~dir ~max_requests:1 () in
      let spec =
        {|(batch (tech 09um) (circuit c2 chain)
  (job sweep s1 (circuit c2) (wls 5)))|}
      in
      (match submit_ok ep ~rid:"bad-tech" ~spec with
       | Serve.Client.Remote_error m ->
         Alcotest.(check string)
           "full message" "unknown technology \"09um\" (07um | 03um)" m
       | _ -> Alcotest.fail "expected a remote error");
      match join () with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "daemon: %s" e)

(* ---- HTTP endpoints on the same socket ----------------------------- *)

let test_http_endpoints () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let ep, join = start_daemon ~dir ~max_requests:1 () in
      let health = http_get ep "/healthz" in
      Alcotest.(check bool)
        "healthz 200" true
        (String.starts_with ~prefix:"HTTP/1.0 200" health);
      Alcotest.(check bool)
        "healthz body" true
        (has_sub health "\"status\":\"ok\"");
      let metrics = http_get ep "/metrics" in
      Alcotest.(check bool)
        "metrics 200" true
        (String.starts_with ~prefix:"HTTP/1.0 200" metrics);
      let missing = http_get ep "/nope" in
      Alcotest.(check bool)
        "unknown path 404" true
        (String.starts_with ~prefix:"HTTP/1.0 404" missing);
      (* GETs do not count toward max_requests; one submit drains *)
      (match submit_ok ep ~rid:"h1" ~spec:spec_src with
       | Serve.Client.Manifest _ -> ()
       | _ -> Alcotest.fail "drain submit did not produce a manifest");
      ignore (join ()))

(* ---- the headline property ---------------------------------------- *)

(* K concurrent clients, same spec, one shared sharded cache: every
   client's manifest is byte-identical to the direct Runner.run, for
   every (shards, jobs) combination.  This is the serving counterpart
   of the runner's interrupt/resume property. *)
let prop_concurrent_clients_identical =
  QCheck.Test.make ~count:6
    ~name:"serve: concurrent clients get byte-identical manifests"
    QCheck.(pair (oneofl [ 1; 4; 16 ]) (oneofl [ 1; 4 ]))
    (fun (shards, jobs) ->
      let k = 3 in
      let dir = temp_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let ep, join =
            start_daemon ~dir ~workers:2 ~shards ~jobs ~max_requests:k ()
          in
          let results = Array.make k "" in
          let threads =
            List.init k (fun i ->
                Thread.create
                  (fun () ->
                    match
                      Serve.Client.submit ep
                        ~rid:(Printf.sprintf "c%d" i)
                        ~spec:spec_src ()
                    with
                    | Ok (Serve.Client.Manifest { manifest; _ }) ->
                      results.(i) <- manifest
                    | Ok _ | Error _ -> ())
                  ())
          in
          List.iter Thread.join threads;
          ignore (join ());
          let reference = Lazy.force reference_manifest in
          Array.for_all (fun m -> m = reference) results))

(* --- Latency: rolling windows, slow log, /metrics lines ------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
  in
  go 0

let test_latency_windows () =
  let module L = Serve.Latency in
  let l = L.create ~slow_threshold_s:0.5 ~slow_cap:2 () in
  let now = 1000.0 in
  for i = 1 to 9 do
    L.record l ~now
      ~rid:(Printf.sprintf "r%d" i)
      ~latency_s:0.01 ~queue_wait_s:0.001
  done;
  L.record l ~now ~rid:"slow1" ~latency_s:2.0 ~queue_wait_s:0.8;
  (match L.window_percentiles l `Latency ~now ~seconds:10 with
  | None -> Alcotest.fail "expected samples in the 10s window"
  | Some (p50, _, p99) ->
    Alcotest.(check bool) "p50 sits with the fast bulk" true (p50 <= 0.03);
    Alcotest.(check bool) "p99 pulled up by the slow request" true
      (p99 >= 0.3));
  (* 30s later the slow request ages out of 10s but stays in 60s *)
  let later = now +. 30.0 in
  L.record l ~now:later ~rid:"r10" ~latency_s:0.02 ~queue_wait_s:0.0;
  (match L.window_percentiles l `Latency ~now:later ~seconds:10 with
  | Some (_, _, p99) ->
    Alcotest.(check bool) "10s window dropped the slow request" true
      (p99 <= 0.1)
  | None -> Alcotest.fail "expected the fresh sample in the 10s window");
  (match L.window_percentiles l `Latency ~now:later ~seconds:60 with
  | Some (_, _, p99) ->
    Alcotest.(check bool) "60s window still sees it" true (p99 >= 0.3)
  | None -> Alcotest.fail "expected samples in the 60s window");
  Alcotest.(check bool)
    "queue-wait series tracked separately" true
    (L.window_percentiles l `Queue_wait ~now:later ~seconds:60 <> None);
  (* the slow log caps at slow_cap, evicting the oldest *)
  L.record l ~now:later ~rid:"slow2" ~latency_s:0.9 ~queue_wait_s:0.1;
  L.record l ~now:later ~rid:"slow3" ~latency_s:0.7 ~queue_wait_s:0.1;
  (match L.slow_requests l with
  | [ a; b ] ->
    Alcotest.(check string) "cap evicts the oldest" "slow2" a.L.rid;
    Alcotest.(check string) "newest kept" "slow3" b.L.rid
  | entries ->
    Alcotest.failf "expected 2 slow entries, got %d" (List.length entries));
  (* /metrics extension: fixed-shape value lines + slow_request objects *)
  let jsonl = L.to_jsonl l ~now:later in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains jsonl needle))
    [ {|"name":"serve.latency_s.p99.60s"|};
      {|"name":"serve.queue_wait_s.p50.10s"|};
      {|"slow_request":{"rid":"slow3"|} ]

let suite =
  [ Alcotest.test_case "round trip + spool replay" `Quick
      test_round_trip_and_replay;
    Alcotest.test_case "latency windows, slow log, metrics lines" `Quick
      test_latency_windows;
    Alcotest.test_case "saturation: explicit rejects, no hangs" `Quick
      test_saturation_rejects;
    Alcotest.test_case "deadline stops cleanly; resubmit resumes" `Quick
      test_deadline_then_resume;
    Alcotest.test_case "spool recovery = uninterrupted manifest" `Quick
      test_spool_recovery;
    Alcotest.test_case "protocol validation" `Quick test_protocol_validation;
    Alcotest.test_case "remote error message arrives whole" `Quick
      test_remote_error_message;
    Alcotest.test_case "http endpoints answer real clients" `Quick
      test_http_endpoints;
    Prop.to_alcotest prop_concurrent_clients_identical ]
