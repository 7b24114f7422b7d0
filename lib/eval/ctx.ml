type t = {
  engine : Engine.t;
  body_effect : bool;
  newton_budget : int option;
  fast : Spice.Engine.Opts.fast;
  stats : Resilience.t option;
  jobs : int;
  cache : Cache.t option;
  obs : Obs.t;
}

let default =
  { engine = Engine.Breakpoint;
    body_effect = true;
    newton_budget = None;
    fast = `Off;
    stats = None;
    jobs = 1;
    cache = None;
    obs = Obs.disabled }

let with_engine engine t = { t with engine }
let with_fast fast t = { t with fast }
let with_body_effect body_effect t = { t with body_effect }
let with_newton_budget newton_budget t = { t with newton_budget }
let with_stats s t = { t with stats = Some s }
let with_jobs jobs t = { t with jobs }
let with_cache c t = { t with cache = Some c }
let with_obs obs t = { t with obs }
let without_cache t = { t with cache = None }

(* One worker domain's view of the context: obs shard + fresh
   resilience accumulator (when the caller tracks stats), jobs pinned
   to 1 so nested entry points stay sequential inside the worker. *)
let worker t =
  let wstats = match t.stats with None -> None | Some _ -> Some (Resilience.create ()) in
  { t with stats = wstats; jobs = 1; obs = Obs.shard t.obs }

let merge_worker ~into w =
  (match (into.stats, w.stats) with
   | Some root, Some shard -> Resilience.merge_into ~into:root shard
   | _ -> ());
  Obs.merge_shard ~into:into.obs w.obs

(* One batch job's view of the context: a fresh resilience accumulator
   (mirrored into the shared registry, like the CLI's --resilience
   path) so per-job solver health is reported independently, while the
   cache, obs handle and worker budget stay shared. *)
let for_job t =
  let stats = Resilience.create () in
  Resilience.attach_obs stats t.obs;
  ({ t with stats = Some stats }, stats)

let override ?engine ?jobs t =
  { t with
    engine = Option.value engine ~default:t.engine;
    jobs = Option.value jobs ~default:t.jobs }
