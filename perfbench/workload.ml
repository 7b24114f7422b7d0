(* The four workloads: seeded operation generators, the call into the
   program's public entry point for one operation, and the independent
   answer checks run after the timed loop.

   Every operation is a generated one-job batch file.  The program sees
   only that text: [Runner.Spec.parse_string] then [Runner.run] on the
   run's shared context (the [mtsize run] path), or
   [Serve.Client.submit] to the in-process daemon. *)

module C = Runner.Catalog
module J = Jsonr

type name = Hunt_bp | Select_sta | Anchor_spice | Serve_repeat

let names =
  [ ("hunt-bp", Hunt_bp); ("select-sta", Select_sta);
    ("anchor-spice", Anchor_spice); ("serve-repeat", Serve_repeat) ]

let name_string w = fst (List.find (fun (_, v) -> v = w) names)

type params =
  | Search of { wl : float; restarts : int; seed : int; iters : int }
  | Size of { target : float; vectors : string list }
  | Worst of { wl : float; sample : int }
  | Select of { budget : float; clusters : int; objective : string }
  | Sweep of { wls : float list; vectors : string list }

type op = {
  circuit : string;  (* catalog name *)
  tech : string;
  engine : string;   (* "bp" | "spice" *)
  fast : Spice.Engine.Opts.fast;
  params : params;
  text : string;     (* the job file the program receives *)
  base : int option; (* serve-repeat: the base spec this op resubmits *)
}

let kind_of = function
  | Search _ -> "search"
  | Size _ -> "size"
  | Worst _ -> "worst-vectors"
  | Select _ -> "select"
  | Sweep _ -> "sweep"

(* every float goes through its printed form, so the value the checks
   use is exactly the value the program parsed *)
let num x = float_of_string (Printf.sprintf "%g" x)
let fs x = Printf.sprintf "%g" x

let render ~circuit ~tech ~engine params =
  let quote l = String.concat " " (List.map (Printf.sprintf "%S") l) in
  let body =
    match params with
    | Search { wl; restarts; seed; iters } ->
      Printf.sprintf "(wl %s) (restarts %d) (seed %d) (max-iters %d)" (fs wl)
        restarts seed iters
    | Size { target; vectors } ->
      Printf.sprintf "(target %s) (vectors %s)" (fs target) (quote vectors)
    | Worst { wl; sample } ->
      Printf.sprintf "(wl %s) (top 3) (sample %d)" (fs wl) sample
    | Select { budget; clusters; objective } ->
      Printf.sprintf "(delay-budget %s) (clusters %d) (objective %s)"
        (fs budget) clusters objective
    | Sweep { wls; vectors } ->
      Printf.sprintf "(wls %s) (vectors %s)"
        (String.concat " " (List.map fs wls))
        (quote vectors)
  in
  Printf.sprintf
    "(batch (tech %s) (defaults (engine %s) (jobs 1)) (circuit c %s)\n\
    \  (job %s j (circuit c) %s))\n"
    tech engine circuit (kind_of params) body

let make ?base ?(fast = `Off) ~circuit ~tech ~engine params =
  { circuit; tech; engine; fast; params; base;
    text = render ~circuit ~tech ~engine params }

(* ---- circuits ---------------------------------------------------- *)

type circuits = (string * string, C.bench_circuit) Hashtbl.t

let circuit (tbl : circuits) ~tech name =
  match Hashtbl.find_opt tbl (tech, name) with
  | Some bc -> bc
  | None ->
    let t = Result.get_ok (C.tech_of_name tech) in
    let bc = Result.get_ok (C.circuit_of_name t name) in
    Hashtbl.replace tbl (tech, name) bc;
    bc

let tech_card name = Result.get_ok (C.tech_of_name name)

(* a seeded transition that switches at least one primary output, so no
   operation is a no-op whose delay is undefined *)
let switching_vector st (bc : C.bench_circuit) =
  let pick () =
    List.map (fun w -> (w, Random.State.int st (1 lsl w))) bc.C.widths
  in
  let outs v =
    let s = Netlist.Logic_sim.eval_ints bc.C.circuit v in
    Array.map (fun n -> s.(n)) (Netlist.Circuit.outputs bc.C.circuit)
  in
  let rec go () =
    let b = pick () and a = pick () in
    if outs b <> outs a then C.vector_string (b, a) else go ()
  in
  go ()

(* ---- generators -------------------------------------------------- *)

(* Operation [i] of a run is a pure function of (workload, seed, i).
   Round-robin templates fix the mix of job kinds and circuits.  Within
   a template, the parameters that drive an operation's cost (W/L,
   delay budget, cluster count, objective) are stratified: each block
   of [m] consecutive occurrences takes every stratum once, in a
   seeded order, with a seeded offset inside the stratum.  Any run then
   holds nearly the same mix of costs whatever the seed, and continuous
   values keep two operations from sharing a cache key by accident.
   [stream] separates timed operations, warm-ups and serve base specs. *)

let rng seed stream i = Random.State.make [| seed; stream; i |]

(* the stratum index of occurrence [k] of template [tpl] *)
let stratum ~seed ~tpl ~k m =
  let perm = Array.init m Fun.id in
  let st = Random.State.make [| seed; 5; tpl; k / m |] in
  for j = m - 1 downto 1 do
    let r = Random.State.int st (j + 1) in
    let t = perm.(j) in
    perm.(j) <- perm.(r);
    perm.(r) <- t
  done;
  perm.(k mod m)

(* a value in [lo, hi) from stratum [s] of [m], offset by [st] *)
let in_stratum st ~s ~m lo hi =
  num (lo +. ((hi -. lo) *. ((float s +. Random.State.float st 1.0) /. float m)))

let hunt_templates =
  [| ("search", "adder8", "07um"); ("size", "mult4", "03um");
     ("worst", "adder8", "07um"); ("search", "mult4", "03um");
     ("size", "adder8", "07um"); ("worst", "mult4", "03um") |]

let hunt_op ~seed tbl st i =
  let nt = Array.length hunt_templates in
  let tpl = i mod nt and k = i / nt in
  let kind, name, tech = hunt_templates.(tpl) in
  let bc = circuit tbl ~tech name in
  let m = 8 in
  let s = stratum ~seed ~tpl ~k m in
  let wl =
    if name = "mult4" then in_stratum st ~s ~m 60.0 180.0
    else in_stratum st ~s ~m 8.0 40.0
  in
  let params =
    match kind with
    | "search" ->
      Search
        { wl; restarts = 2; seed = Random.State.int st 1_000_000;
          iters = (if name = "mult4" then 10 else 18) }
    | "size" ->
      Size
        { target = in_stratum st ~s ~m 0.04 0.08;
          vectors = List.init 8 (fun _ -> switching_vector st bc) }
    | _ -> Worst { wl; sample = (if name = "mult4" then 32 else 56) }
  in
  make ~circuit:name ~tech ~engine:"bp" params

(* Mostly mid-sized circuits, kogge8 once per round.  The cluster count
   sets a select's cost (roughly linear in it), so it is stratified per
   circuit, and kogge8 keeps to one or two clusters so that no single
   operation dominates the run. *)
let select_templates =
  [| ("adder4", 4); ("kogge4", 4); ("adder6", 4); ("adder4", 4);
     ("kogge4", 4); ("adder8", 4); ("adder6", 4); ("kogge4", 4);
     ("adder4", 4); ("kogge8", 2) |]

let select_objectives = [| "leakage"; "mixed"; "area" |]

let select_op ~seed tbl st i =
  let nt = Array.length select_templates in
  let tpl = i mod nt and k = i / nt in
  let name, max_clusters = select_templates.(tpl) in
  ignore (circuit tbl ~tech:"07um" name);
  let b = stratum ~seed ~tpl:(tpl + 100) ~k 4 in
  make ~circuit:name ~tech:"07um" ~engine:"bp"
    (Select
       { budget = in_stratum st ~s:b ~m:4 0.05 0.2;
         clusters = 1 + stratum ~seed ~tpl ~k max_clusters;
         objective = select_objectives.(stratum ~seed ~tpl:(tpl + 200) ~k 3) })

let anchor_circuits = [| "chain"; "adder1"; "tree" |]

(* a fixed 1:4 mix of the exact engine and the bypass/LTE fast path *)
let anchor_fast i = if i mod 5 = 0 then `Off else `Reduce_bypass

let anchor_op ~seed tbl st i =
  let name = anchor_circuits.(i mod Array.length anchor_circuits) in
  let bc = circuit tbl ~tech:"07um" name in
  let m = 8 in
  let s = stratum ~seed ~tpl:(i mod 15) ~k:(i / 15) m in
  make ~fast:(anchor_fast i) ~circuit:name ~tech:"07um" ~engine:"spice"
    (Sweep
       { wls = [ in_stratum st ~s ~m 4.0 40.0 ];
         vectors = [ switching_vector st bc ] })

let serve_bases = 16
let serve_fresh_every = 10 (* one fresh spec in ten *)

(* small adder4 batches, so a repeat is almost all serve, runner and
   cache-read work *)
let serve_fresh ~seed:_ tbl st i =
  let bc = circuit tbl ~tech:"07um" "adder4" in
  let params =
    if (i + (i / serve_fresh_every)) mod 2 = 0 then
      Size
        { target = num (0.04 +. Random.State.float st 0.06);
          vectors = [ switching_vector st bc ] }
    else
      Sweep
        { wls = [ num (4.0 +. Random.State.float st 60.0) ];
          vectors = [ switching_vector st bc ] }
  in
  make ~circuit:"adder4" ~tech:"07um" ~engine:"bp" params

let timed_stream = 1
let warm_stream = 2
let base_stream = 3

let serve_base tbl seed b = serve_fresh ~seed tbl (rng seed base_stream b) b

(* serve-repeat: [Some b] when operation [i] resubmits base spec [b],
   [None] for the one fresh spec in ten *)
let serve_repeat_of ~seed i =
  if i mod serve_fresh_every = serve_fresh_every - 1 then None
  else Some (Random.State.int (rng seed timed_stream i) serve_bases)

let gen w ~seed tbl st i =
  match w with
  | Hunt_bp -> hunt_op ~seed tbl st i
  | Select_sta -> select_op ~seed tbl st i
  | Anchor_spice -> anchor_op ~seed tbl st i
  | Serve_repeat -> serve_fresh ~seed tbl st i

(* operations per round of the workload's templates: a run of whole
   rounds holds the same mix of job kinds, circuits and fast modes
   whatever its length *)
let period = function
  | Hunt_bp -> Array.length hunt_templates
  | Select_sta -> Array.length select_templates
  | Anchor_spice -> 15 (* circuits x the 1:4 fast-mode mix *)
  | Serve_repeat -> serve_fresh_every

(* the timed operation [i]; for serve-repeat, the fresh spec (repeats
   come from {!serve_repeat_of}) *)
let op w tbl ~seed i = gen w ~seed tbl (rng seed timed_stream i) i

(* One untimed operation per distinct (circuit, job kind, fast mode), so
   lazy compilation and engine preparation are paid in set-up.  They do
   not depend on the seed, so set-up does the same work on every run.
   The serve-repeat warm-up is the submission of its base specs. *)
let warmups w tbl =
  let positions =
    match w with
    | Hunt_bp -> [ 0; 1; 2; 3; 4; 5 ]
    | Select_sta -> [ 0; 1; 2; 5; 9 ] (* adder4 kogge4 adder6 adder8 kogge8 *)
    | Anchor_spice -> [ 0; 5; 10; 1; 2; 3 ] (* each circuit, both modes *)
    | Serve_repeat -> []
  in
  List.map (fun i -> gen w ~seed:0 tbl (rng 0 warm_stream i) i) positions

(* ---- answers and checks ------------------------------------------ *)

type answer = {
  manifest : string;
  clean : bool;  (* every job reported status "ok" *)
}

let job_result manifest =
  match J.parse_opt manifest with
  | None -> None
  | Some m ->
    (match J.arr (J.field "jobs" m) with
     | [ j ] when J.str (J.field "status" j) = "ok" -> Some (J.field "result" j)
     | _ -> None)

let sleep_of tech ~wl =
  Mtcmos.Breakpoint_sim.Sleep_fet
    (Device.Sleep.make tech.Device.Tech.sleep_nmos ~wl
       ~vdd:tech.Device.Tech.vdd)

let parse_vec (bc : C.bench_circuit) s =
  Result.get_ok (C.parse_vector bc.C.widths s)

(* no cache, no observability: an independent recomputation *)
let fresh_ctx = Eval.Ctx.default

let eq_exact a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The independent answer check behind [ok_frac]: each job kind is
   re-derived through a different route than the one that produced it. *)
let check tbl (o : op) (a : answer) =
  let bc = circuit tbl ~tech:o.tech o.circuit in
  let tech = tech_card o.tech in
  match job_result a.manifest with
  | None -> false
  | Some r ->
    (match o.params with
     | Search { wl; _ } ->
       (* re-scoring the reported pair with no cache gives exactly the
          reported score *)
       let pair = parse_vec bc (J.str (J.field "worst" r)) in
       let s =
         Mtcmos.Search.score ~ctx:fresh_ctx bc.C.circuit
           ~sleep:(sleep_of tech ~wl) Mtcmos.Search.Max_degradation pair
       in
       eq_exact s (J.num (J.field "score" r))
     | Size { target; vectors } ->
       (* the reported W/L meets its target when re-simulated *)
       let wl = J.num (J.field "wl" r) in
       let m =
         Mtcmos.Sizing.delay_at ~ctx:fresh_ctx bc.C.circuit
           ~vectors:(List.map (parse_vec bc) vectors) ~wl
       in
       wl > 0.0 && m.Mtcmos.Sizing.degradation <= target
     | Worst { wl; _ } ->
       (* ranked worst first, and the top delay re-simulates exactly *)
       (match J.arr (J.field "ranked" r) with
        | [] -> false
        | top :: _ as ranked ->
          let degs = List.map (fun x -> J.num (J.field "degradation" x)) ranked in
          let rec sorted = function
            | x :: (y :: _ as tl) -> x >= y && sorted tl
            | _ -> true
          in
          let d =
            Mtcmos.Search.score ~ctx:fresh_ctx bc.C.circuit
              ~sleep:(sleep_of tech ~wl) Mtcmos.Search.Max_delay
              (parse_vec bc (J.str (J.field "vector" top)))
          in
          sorted degs && eq_exact d (J.num (J.field "delay" top)))
     | Select { budget; clusters; objective } ->
       (* the optimizer is deterministic: recompute its answer with no
          cache, then verify it with a fresh gated STA pass *)
       let objective =
         Result.get_ok (C.select_objective_of_name objective)
       in
       let s =
         Mtcmos.Selective.optimize ~ctx:fresh_ctx ~objective ~clusters
           bc.C.circuit ~delay_budget:budget
       in
       let gating =
         Mtcmos.Selective.gating ~vt_high:s.Mtcmos.Selective.vt_high
           ~cluster_of_gate:s.Mtcmos.Selective.cluster_of_gate
           ~sleep_wl:s.Mtcmos.Selective.sleep_wl
       in
       let sta = Mtcmos.Sta.analyze ~gating bc.C.circuit in
       let arrival = (Mtcmos.Sta.critical_path sta).Mtcmos.Sta.arrival in
       let leak =
         Mtcmos.Selective.standby_leakage bc.C.circuit
           ~vt_high:s.Mtcmos.Selective.vt_high
           ~cluster_of_gate:s.Mtcmos.Selective.cluster_of_gate
           ~sleep_wl:s.Mtcmos.Selective.sleep_wl
       in
       let reported = J.num (J.field "leakage" r) in
       eq_exact reported s.Mtcmos.Selective.leakage
       && eq_exact reported leak
       && s.Mtcmos.Selective.budget -. arrival >= 0.0
       && reported <= J.num (J.field "ungated_leakage" r)
     | Sweep _ when o.engine = "spice" ->
       (* ok and not degraded (job_result), finite positive delay *)
       (match J.arr (J.field "measurements" r) with
        | [ m ] ->
          let d = J.num (J.field "mtcmos_delay" m) in
          Float.is_finite d && d > 0.0
        | _ -> false)
     | Sweep _ ->
       List.for_all
         (fun m -> J.num (J.field "mtcmos_delay" m) > 0.0)
         (J.arr (J.field "measurements" r)))

(* ---- answer-quality figures -------------------------------------- *)

(* hunt-bp: degradation of the worst vector each hunt found, in % *)
let hunt_degradation (o : op) (a : answer) =
  match (o.params, job_result a.manifest) with
  | Search _, Some r -> Some (100.0 *. J.num (J.field "score" r))
  | Worst _, Some r ->
    (match J.arr (J.field "ranked" r) with
     | top :: _ -> Some (100.0 *. J.num (J.field "degradation" top))
     | [] -> None)
  | _ -> None

(* select-sta: the selected standby leakage, fA *)
let selected_leakage (o : op) (a : answer) =
  match (o.params, job_result a.manifest) with
  | Select _, Some r -> Some (1e15 *. J.num (J.field "leakage" r))
  | _ -> None

(* anchor-spice: |switch-level - SPICE| / SPICE over the exact-engine
   operations, in % *)
let bp_error tbl (o : op) (a : answer) =
  match (o.params, o.fast, job_result a.manifest) with
  | Sweep { wls = [ wl ]; vectors }, `Off, Some r ->
    (match J.arr (J.field "measurements" r) with
     | [ m ] ->
       let spice = J.num (J.field "mtcmos_delay" m) in
       let bc = circuit tbl ~tech:o.tech o.circuit in
       let bp =
         Mtcmos.Sizing.delay_at ~ctx:fresh_ctx bc.C.circuit
           ~vectors:(List.map (parse_vec bc) vectors) ~wl
       in
       Some (100.0 *. Float.abs (bp.Mtcmos.Sizing.mtcmos_delay -. spice) /. spice)
     | _ -> None)
  | _ -> None
