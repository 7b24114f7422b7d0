(* Registry internals: one Hashtbl from name to a mutable cell.  No
   lock — shards are domain-local and merged in the caller's domain
   (see the .mli for the sharing contract). *)

type hist = {
  bounds : float array;
  counts : int array;               (* length = bounds + 1 (overflow) *)
  mutable h_sum : float;
  mutable h_total : int;
}

type cell =
  | Counter of int ref
  | Sum of float ref
  | Gauge of float ref
  | Hist of hist

type t = (string, cell) Hashtbl.t

type value =
  | Count of int
  | Value of float
  | Dist of {
      bounds : float array;
      counts : int array;
      sum : float;
      total : int;
    }

let create () : t = Hashtbl.create 64

let kind_name = function
  | Counter _ -> "counter"
  | Sum _ -> "sum"
  | Gauge _ -> "gauge"
  | Hist _ -> "histogram"

let clash name cell want =
  invalid_arg
    (Printf.sprintf "Obs.Metrics: %s is a %s, not a %s" name
       (kind_name cell) want)

let incr ?(by = 1) t name =
  match Hashtbl.find_opt t name with
  | None -> Hashtbl.replace t name (Counter (ref by))
  | Some (Counter r) -> r := !r + by
  | Some c -> clash name c "counter"

let set_count t name v =
  match Hashtbl.find_opt t name with
  | None -> Hashtbl.replace t name (Counter (ref v))
  | Some (Counter r) -> r := v
  | Some c -> clash name c "counter"

let addf t name v =
  match Hashtbl.find_opt t name with
  | None -> Hashtbl.replace t name (Sum (ref v))
  | Some (Sum r) -> r := !r +. v
  | Some c -> clash name c "sum"

let set_gauge t name v =
  match Hashtbl.find_opt t name with
  | None -> Hashtbl.replace t name (Gauge (ref v))
  | Some (Gauge r) -> r := v
  | Some c -> clash name c "gauge"

let default_buckets = [| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. |]

let check_buckets name b =
  if Array.length b = 0 then
    invalid_arg (Printf.sprintf "Obs.Metrics: %s: empty buckets" name);
  for i = 1 to Array.length b - 1 do
    if not (b.(i) > b.(i - 1)) then
      invalid_arg
        (Printf.sprintf "Obs.Metrics: %s: bucket edges not increasing" name)
  done

let bucket_of bounds v =
  (* first bucket whose upper edge admits v; the trailing slot is the
     overflow bucket *)
  let n = Array.length bounds in
  let rec find i = if i >= n || v <= bounds.(i) then i else find (i + 1) in
  find 0

let observe ?(buckets = default_buckets) t name v =
  let h =
    match Hashtbl.find_opt t name with
    | Some (Hist h) -> h
    | Some c -> clash name c "histogram"
    | None ->
      check_buckets name buckets;
      let h =
        { bounds = Array.copy buckets;
          counts = Array.make (Array.length buckets + 1) 0;
          h_sum = 0.0;
          h_total = 0 }
      in
      Hashtbl.replace t name (Hist h);
      h
  in
  let b = bucket_of h.bounds v in
  h.counts.(b) <- h.counts.(b) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_total <- h.h_total + 1

(* Percentile estimation over the fixed-bucket representation, shared
   by Report and the daemon's /metrics view.  The estimate assumes
   samples are uniform within a bucket (linear interpolation between
   the bucket's edges); the overflow bucket has no upper edge, so any
   rank landing there reports the last finite edge — a deliberate
   under-estimate that keeps the result inside the configured range. *)
module Hist = struct
  let percentile ~bounds ~counts p =
    if p < 0.0 || p > 100.0 then
      invalid_arg (Printf.sprintf "Obs.Metrics.Hist.percentile: p = %g" p);
    let n = Array.length bounds in
    let total = Array.fold_left ( + ) 0 counts in
    if total = 0 then 0.0
    else begin
      let target = float_of_int total *. p /. 100.0 in
      let rec walk i cum =
        if i >= Array.length counts then bounds.(n - 1)
        else begin
          let c = counts.(i) in
          let cum' = cum + c in
          if c > 0 && float_of_int cum' >= target then
            if i >= n then bounds.(n - 1)
            else begin
              let lo = if i = 0 then 0.0 else bounds.(i - 1) in
              let hi = bounds.(i) in
              let frac = (target -. float_of_int cum) /. float_of_int c in
              let frac = Float.max 0.0 (Float.min 1.0 frac) in
              lo +. (frac *. (hi -. lo))
            end
          else walk (i + 1) cum'
        end
      in
      walk 0 0
    end

  let percentiles ~bounds ~counts =
    ( percentile ~bounds ~counts 50.0,
      percentile ~bounds ~counts 90.0,
      percentile ~bounds ~counts 99.0 )

  let percentiles_of_value = function
    | Dist { bounds; counts; total; _ } when total > 0 ->
      Some (percentiles ~bounds ~counts)
    | _ -> None
end

let count t name =
  match Hashtbl.find_opt t name with Some (Counter r) -> !r | _ -> 0

let valuef t name =
  match Hashtbl.find_opt t name with
  | Some (Sum r) | Some (Gauge r) -> !r
  | _ -> 0.0

let value_of = function
  | Counter r -> Count !r
  | Sum r | Gauge r -> Value !r
  | Hist h ->
    Dist
      { bounds = Array.copy h.bounds;
        counts = Array.copy h.counts;
        sum = h.h_sum;
        total = h.h_total }

let get t name = Option.map value_of (Hashtbl.find_opt t name)

let merge ~into t =
  (* per-name merges are independent and (except gauges, which take
     max) commutative additions, so the Hashtbl iteration order does
     not matter *)
  Hashtbl.iter
    (fun name cell ->
      match (Hashtbl.find_opt into name, cell) with
      | None, Counter r -> Hashtbl.replace into name (Counter (ref !r))
      | None, Sum r -> Hashtbl.replace into name (Sum (ref !r))
      | None, Gauge r -> Hashtbl.replace into name (Gauge (ref !r))
      | None, Hist h ->
        Hashtbl.replace into name
          (Hist
             { bounds = Array.copy h.bounds;
               counts = Array.copy h.counts;
               h_sum = h.h_sum;
               h_total = h.h_total })
      | Some (Counter a), Counter b -> a := !a + !b
      | Some (Sum a), Sum b -> a := !a +. !b
      | Some (Gauge a), Gauge b -> a := Float.max !a !b
      | Some (Hist a), Hist b ->
        if a.bounds <> b.bounds then
          invalid_arg
            (Printf.sprintf "Obs.Metrics: %s: histogram bucket mismatch"
               name);
        Array.iteri (fun i k -> a.counts.(i) <- a.counts.(i) + k) b.counts;
        a.h_sum <- a.h_sum +. b.h_sum;
        a.h_total <- a.h_total + b.h_total
      | Some existing, _ -> clash name existing (kind_name cell))
    t

let dump t =
  Hashtbl.fold (fun name cell acc -> (name, value_of cell) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_jsonl t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      (match v with
       | Count n ->
         Printf.bprintf buf {|{"name":"%s","type":"counter","value":%d}|}
           name n
       | Value f ->
         Printf.bprintf buf {|{"name":"%s","type":"value","value":%s}|} name
           (Json.number f)
       | Dist d ->
         Printf.bprintf buf
           {|{"name":"%s","type":"histogram","bounds":[%s],"counts":[%s],"sum":%s,"total":%d}|}
           name
           (String.concat ","
              (Array.to_list (Array.map Json.number d.bounds)))
           (String.concat ","
              (Array.to_list (Array.map string_of_int d.counts)))
           (Json.number d.sum) d.total);
      Buffer.add_char buf '\n')
    (dump t);
  Buffer.contents buf
