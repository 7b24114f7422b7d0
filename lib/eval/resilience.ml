(* Per-sweep resilience accounting: how many transistor-level analyses
   ran clean, how many needed a recovery strategy, and which vectors had
   to be skipped (with their structured diagnosis).  Sizing flows thread
   an optional accumulator through and the CLI prints the report.

   Parallel sweeps give each worker domain its own accumulator and fold
   them into the caller's with [merge_into] in worker order (see
   Par.Pool.map_stateful), so counter totals are exact under
   parallelism and the merge order never depends on timing.

   The evaluation cache stores a snapshot of the accumulator deltas a
   computation recorded; a cache hit replays the snapshot with
   [merge_into], so counter totals are identical whether a sample was
   computed or served from the cache. *)

type skip_kind =
  | Dropped      (* sample lost entirely *)
  | Estimated    (* replaced by the breakpoint-simulator estimate *)
  | Scored_zero  (* search candidate forced to score 0.0 *)

type t = {
  mutable attempted : int;
  mutable direct : int;      (* converged with no recovery strategy *)
  mutable recovered : int;   (* converged after at least one rescue *)
  mutable skipped : int;     (* analysis failed; see the kind counters *)
  mutable fallback : int;    (* Estimated skips *)
  mutable scored_zero : int; (* Scored_zero skips *)
  mutable strategies : (string * int) list; (* rescue name -> count *)
  mutable skips : (string * skip_kind * Spice.Diag.failure) list;
  mutable obs : Obs.t;
      (* registry mirror.  Only the root accumulator of a run carries a
         live instance (attach_obs); worker shards and the cache's
         per-computation accumulators stay disabled, so counts enter
         the registry exactly once — directly on a sequential record,
         or via merge_into when a shard / cache snapshot is folded into
         the root.  Totals therefore stay cache- and jobs-invariant,
         same as the field counters. *)
}

let create () =
  { attempted = 0; direct = 0; recovered = 0; skipped = 0; fallback = 0;
    scored_zero = 0; strategies = []; skips = []; obs = Obs.disabled }

let attach_obs t obs = t.obs <- obs

(* mirror a delta batch into the registry (no-op on Obs.disabled) *)
let obs_record t ~attempted ~direct ~recovered ~skipped ~fallback
    ~scored_zero ~strategies =
  if Obs.metrics_on t.obs then begin
    let c name by = if by <> 0 then Obs.incr t.obs ~by name in
    c "eval.resilience.attempted" attempted;
    c "eval.resilience.direct" direct;
    c "eval.resilience.recovered" recovered;
    c "eval.resilience.skipped" skipped;
    c "eval.resilience.fallback" fallback;
    c "eval.resilience.scored_zero" scored_zero;
    List.iter
      (fun (name, k) -> c ("eval.resilience.recovery." ^ name) k)
      strategies
  end

let add_strategies t l =
  let rec bump name k = function
    | [] -> [ (name, k) ]
    | (n, k0) :: rest when n = name -> (n, k0 + k) :: rest
    | p :: rest -> p :: bump name k rest
  in
  t.strategies <- List.fold_left (fun acc (n, k) -> bump n k acc) t.strategies l

let record_success ?stats (tm : Spice.Diag.telemetry) =
  match stats with
  | None -> ()
  | Some t ->
    t.attempted <- t.attempted + 1;
    if Spice.Diag.recovered tm then begin
      t.recovered <- t.recovered + 1;
      add_strategies t tm.Spice.Diag.recoveries;
      obs_record t ~attempted:1 ~direct:0 ~recovered:1 ~skipped:0
        ~fallback:0 ~scored_zero:0 ~strategies:tm.Spice.Diag.recoveries
    end
    else begin
      t.direct <- t.direct + 1;
      obs_record t ~attempted:1 ~direct:1 ~recovered:0 ~skipped:0
        ~fallback:0 ~scored_zero:0 ~strategies:[]
    end

let record_skip ?stats ?(kind = Dropped) ~label (f : Spice.Diag.failure) =
  match stats with
  | None -> ()
  | Some t ->
    t.attempted <- t.attempted + 1;
    t.skipped <- t.skipped + 1;
    (match kind with
     | Dropped -> ()
     | Estimated -> t.fallback <- t.fallback + 1
     | Scored_zero -> t.scored_zero <- t.scored_zero + 1);
    t.skips <- t.skips @ [ (label, kind, f) ];
    obs_record t ~attempted:1 ~direct:0 ~recovered:0 ~skipped:1
      ~fallback:(if kind = Estimated then 1 else 0)
      ~scored_zero:(if kind = Scored_zero then 1 else 0)
      ~strategies:[]

let merge_into ~into t =
  into.attempted <- into.attempted + t.attempted;
  into.direct <- into.direct + t.direct;
  into.recovered <- into.recovered + t.recovered;
  into.skipped <- into.skipped + t.skipped;
  into.fallback <- into.fallback + t.fallback;
  into.scored_zero <- into.scored_zero + t.scored_zero;
  add_strategies into t.strategies;
  into.skips <- into.skips @ t.skips;
  (* shards and cache snapshots never carry a live [obs], so the
     registry sees these counts here, exactly once *)
  obs_record into ~attempted:t.attempted ~direct:t.direct
    ~recovered:t.recovered ~skipped:t.skipped ~fallback:t.fallback
    ~scored_zero:t.scored_zero ~strategies:t.strategies

let kind_label = function
  | Dropped -> "skipped"
  | Estimated -> "skipped (estimated instead)"
  | Scored_zero -> "scored 0"

let pp_report fmt t =
  Format.fprintf fmt
    "resilience: %d analyses attempted, %d direct, %d recovered, %d skipped"
    t.attempted t.direct t.recovered t.skipped;
  if t.fallback > 0 then
    Format.fprintf fmt " (%d replaced by switch-level estimate)" t.fallback;
  if t.scored_zero > 0 then
    Format.fprintf fmt " (%d search candidates scored 0)" t.scored_zero;
  (match t.strategies with
   | [] -> ()
   | l ->
     Format.fprintf fmt "@.  recoveries: %s"
       (String.concat ", "
          (List.map (fun (n, k) -> Printf.sprintf "%s x%d" n k) l)));
  List.iter
    (fun (label, kind, f) ->
      Format.fprintf fmt "@.  %s %s: %a" (kind_label kind) label
        Spice.Diag.pp_failure f)
    t.skips

