(* The observability facade: one value threaded through Eval.Ctx that
   bundles a metrics registry shard and a (shared) trace sink.  Every
   recording entry point checks the cheap [metrics_on] / [trace] flags
   first, so the disabled value is a true no-op: no allocation, no
   clock reads, no hashing. *)

module Clock = Clock
module Metrics = Metrics
module Json = Json
module Trace = Trace
module Prof = Prof
module Report = Report

type t = {
  metrics_on : bool;
  metrics : Metrics.t;
  trace : Trace.t option;
}

let disabled =
  { metrics_on = false; metrics = Metrics.create (); trace = None }

let create ?(trace = false) () =
  { metrics_on = true;
    metrics = Metrics.create ();
    trace = (if trace then Some (Trace.create ()) else None) }

let enabled t = t.metrics_on || Option.is_some t.trace
let metrics_on t = t.metrics_on
let metrics t = t.metrics
let trace t = t.trace

let spans_only t = if t.metrics_on then { t with metrics_on = false } else t

let incr ?by t name = if t.metrics_on then Metrics.incr ?by t.metrics name

let set_count t name v =
  if t.metrics_on then Metrics.set_count t.metrics name v

let addf t name v = if t.metrics_on then Metrics.addf t.metrics name v

let set_gauge t name v =
  if t.metrics_on then Metrics.set_gauge t.metrics name v

let max_gauge t name v =
  if t.metrics_on then
    Metrics.set_gauge t.metrics name
      (Float.max v (Metrics.valuef t.metrics name))

let observe ?buckets t name v =
  if t.metrics_on then Metrics.observe ?buckets t.metrics name v

module Span = struct
  let with_ t ?args name f =
    match t.trace with
    | None -> f ()
    | Some tr -> Trace.with_span tr ?args name f
end

let with_span t name f = Span.with_ t name f

(* Worker-domain sharding, mirroring Eval.Resilience: a shard gets a
   private registry (domain-local, lock-free) but shares the
   mutex-guarded trace sink; Par.Pool call sites merge shards back in
   worker order, so totals are jobs-invariant. *)

let shard t = if t.metrics_on then { t with metrics = Metrics.create () } else t

let merge_shard ~into t =
  if into.metrics_on && t.metrics_on && not (t.metrics == into.metrics) then
    Metrics.merge ~into:into.metrics t.metrics

let report t = Report.render t.metrics t.trace

let metrics_jsonl t = Metrics.to_jsonl t.metrics

let write_trace t file =
  match t.trace with
  | None -> ()
  | Some tr -> Trace.write_chrome ~metrics:t.metrics tr file

let profile t =
  match t.trace with None -> Prof.empty | Some tr -> Prof.of_trace tr

let write_profile t file =
  match t.trace with
  | None -> ()
  | Some tr ->
    let p = Prof.of_trace tr in
    let put path s =
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
          output_string oc s)
    in
    put file (Prof.to_collapsed p);
    (* the timing-free companion: per-label call counts, byte-identical
       across --jobs and cache settings for the same work *)
    put (file ^ ".golden") (Prof.golden p)
