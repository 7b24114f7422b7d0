(* Streaming latency estimation for the daemon: fixed-bucket histograms
   over rolling one-second slots, so /metrics can answer "p99 over the
   last 10s / 60s" without keeping per-request samples.

   NOT thread-safe on its own — the daemon already serializes registry
   access under its mlock, and this structure lives under the same
   lock, so adding another here would only hide ordering bugs. *)

(* request latencies span sub-millisecond replays to multi-second
   batches *)
let default_buckets =
  [| 1e-4; 3e-4; 1e-3; 3e-3; 0.01; 0.03; 0.1; 0.3; 1.0; 3.0; 10.0; 30.0 |]

let ring_slots = 64 (* > the largest window, so slots never alias *)

type ring = {
  slots : int array array;  (* per slot: bucket counts (+ overflow) *)
  secs : int array;         (* the epoch second each slot holds *)
}

type slow = {
  rid : string;
  latency_s : float;
  queue_wait_s : float;
  at : float;  (* epoch seconds *)
}

type t = {
  bounds : float array;
  latency : ring;
  queue_wait : ring;
  slow_threshold_s : float;
  slow_cap : int;
  slow : slow Queue.t;  (* most recent last *)
}

let create ?(slow_threshold_s = 1.0) ?(slow_cap = 16) () =
  let buckets = default_buckets in
  let ring () =
    { slots =
        Array.init ring_slots (fun _ ->
            Array.make (Array.length buckets + 1) 0);
      secs = Array.make ring_slots (-1) }
  in
  { bounds = Array.copy buckets;
    latency = ring ();
    queue_wait = ring ();
    slow_threshold_s;
    slow_cap;
    slow = Queue.create () }

let slow_threshold_s t = t.slow_threshold_s

let ring_observe t r ~now v =
  let sec = int_of_float now in
  let i = sec mod ring_slots in
  if r.secs.(i) <> sec then begin
    Array.fill r.slots.(i) 0 (Array.length r.slots.(i)) 0;
    r.secs.(i) <- sec
  end;
  let n = Array.length t.bounds in
  let rec bucket j = if j >= n || v <= t.bounds.(j) then j else bucket (j + 1) in
  let b = bucket 0 in
  r.slots.(i).(b) <- r.slots.(i).(b) + 1

let record t ~now ~rid ~latency_s ~queue_wait_s =
  ring_observe t t.latency ~now latency_s;
  ring_observe t t.queue_wait ~now queue_wait_s;
  if latency_s >= t.slow_threshold_s then begin
    Queue.push { rid; latency_s; queue_wait_s; at = now } t.slow;
    while Queue.length t.slow > t.slow_cap do
      ignore (Queue.pop t.slow)
    done
  end

(* bucket counts summed over the slots inside [now - seconds, now] *)
let window_counts t r ~now ~seconds =
  let now_sec = int_of_float now in
  let counts = Array.make (Array.length t.bounds + 1) 0 in
  let total = ref 0 in
  for i = 0 to ring_slots - 1 do
    let s = r.secs.(i) in
    if s >= 0 && now_sec - s < seconds then
      Array.iteri
        (fun b k ->
          counts.(b) <- counts.(b) + k;
          total := !total + k)
        r.slots.(i)
  done;
  (counts, !total)

let window_percentiles t which ~now ~seconds =
  let r = match which with `Latency -> t.latency | `Queue_wait -> t.queue_wait in
  let counts, total = window_counts t r ~now ~seconds in
  if total = 0 then None
  else Some (Obs.Metrics.Hist.percentiles ~bounds:t.bounds ~counts)

let slow_requests t = List.of_seq (Queue.to_seq t.slow)

(* /metrics extension lines: window percentiles as plain value metrics
   (so scrapers need no new parser) plus one object per slow request *)
let to_jsonl t ~now =
  let buf = Buffer.create 512 in
  let f v = Printf.sprintf "%g" v in
  List.iter
    (fun (which, name) ->
      List.iter
        (fun seconds ->
          match window_percentiles t which ~now ~seconds with
          | None -> ()
          | Some (p50, p90, p99) ->
            List.iter
              (fun (p, v) ->
                Printf.bprintf buf
                  {|{"name":"%s.%s.%ds","type":"value","value":%s}|} name p
                  seconds (f v);
                Buffer.add_char buf '\n')
              [ ("p50", p50); ("p90", p90); ("p99", p99) ])
        [ 10; 60 ])
    [ (`Latency, "serve.latency_s"); (`Queue_wait, "serve.queue_wait_s") ];
  List.iter
    (fun s ->
      Printf.bprintf buf
        {|{"slow_request":{"rid":"%s","latency_s":%s,"queue_wait_s":%s,"at":%s}}|}
        s.rid (f s.latency_s) (f s.queue_wait_s) (f s.at);
      Buffer.add_char buf '\n')
    (slow_requests t);
  Buffer.contents buf
