(* Lock-striped LRU: the table is split into N independent shards, each
   a mutex-guarded hash table + intrusive doubly-linked recency list
   ([head] most recently used, [tail] least; find bumps to head, store
   evicts from tail).  A key is routed to a shard by its first digest
   byte, so the mapping is a pure function of the key — which shard
   holds an entry never depends on timing, shard count aside.  OCaml 5
   [Mutex] is domain-safe, so one cache may be shared by Par.Pool
   worker domains and by the concurrent request threads of the serve
   daemon: with one shard every client serializes on a single lock;
   with N shards clients contend only when their keys collide on a
   shard.  Hit/miss counts can vary with scheduling under true
   concurrency, but values cannot — a hit returns the exact floats a
   miss stored.  Under a deterministic (single-threaded) schedule the
   merged hit/miss counters are also shard-count-invariant as long as
   nothing is evicted: a lookup hits iff the key was stored, wherever
   it lives. *)

type entry = { floats : float array; stats : Resilience.t option }

type node = {
  nkey : string;
  mutable value : entry;
  mutable nbytes : int;
  mutable prev : node option; (* toward head / MRU *)
  mutable next : node option; (* toward tail / LRU *)
}

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
}

type shard = {
  table : (string, node) Hashtbl.t;
  cap : int;
  lock : Mutex.t;
  mutable head : node option;
  mutable tail : node option;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type t = { shards : shard array; total_cap : int }

let make_shard cap =
  { table = Hashtbl.create 1024;
    cap;
    lock = Mutex.create ();
    head = None;
    tail = None;
    bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0 }

let create ?(max_entries = 65536) ?(shards = 1) () =
  if max_entries <= 0 then invalid_arg "Eval.Cache.create: max_entries <= 0";
  if shards <= 0 || shards > 256 then
    invalid_arg "Eval.Cache.create: shards must be in [1, 256]";
  (* per-shard capacity: ceiling split, so the bound never rounds to 0
     and the total capacity is at least max_entries *)
  let cap = (max_entries + shards - 1) / shards in
  { shards = Array.init shards (fun _ -> make_shard cap);
    total_cap = max_entries }

(* digest-prefix routing: a pure function of the key *)
let shard_of t key =
  let n = Array.length t.shards in
  if n = 1 then t.shards.(0)
  else if key = "" then t.shards.(0)
  else t.shards.(Char.code key.[0] mod n)

(* rough heap footprint of one entry, for the bytes counter *)
let stats_bytes = function
  | None -> 0
  | Some (s : Resilience.t) ->
    64
    + (32 * List.length s.Resilience.strategies)
    + (160 * List.length s.Resilience.skips)

let entry_bytes key e =
  96 + String.length key + (8 * Array.length e.floats) + stats_bytes e.stats

(* recency-list surgery; caller holds the shard lock *)

let unlink s n =
  (match n.prev with Some p -> p.next <- n.next | None -> s.head <- n.next);
  (match n.next with Some x -> x.prev <- n.prev | None -> s.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front s n =
  n.next <- s.head;
  (match s.head with Some h -> h.prev <- Some n | None -> s.tail <- Some n);
  s.head <- Some n

let evict_tail s =
  match s.tail with
  | None -> ()
  | Some n ->
    unlink s n;
    Hashtbl.remove s.table n.nkey;
    s.bytes <- s.bytes - n.nbytes;
    s.evictions <- s.evictions + 1

let find t key =
  let s = shard_of t key in
  Mutex.protect s.lock (fun () ->
      match Hashtbl.find_opt s.table key with
      | Some n ->
        s.hits <- s.hits + 1;
        unlink s n;
        push_front s n;
        Some n.value
      | None ->
        s.misses <- s.misses + 1;
        None)

let store t key e =
  let s = shard_of t key in
  Mutex.protect s.lock (fun () ->
      let nb = entry_bytes key e in
      (match Hashtbl.find_opt s.table key with
       | Some n ->
         s.bytes <- s.bytes - n.nbytes + nb;
         n.value <- e;
         n.nbytes <- nb;
         unlink s n;
         push_front s n
       | None ->
         while Hashtbl.length s.table >= s.cap do
           evict_tail s
         done;
         let n = { nkey = key; value = e; nbytes = nb; prev = None; next = None } in
         Hashtbl.replace s.table key n;
         push_front s n;
         s.bytes <- s.bytes + nb))

let counters t =
  Array.fold_left
    (fun (acc : counters) s ->
      Mutex.protect s.lock (fun () ->
          { hits = acc.hits + s.hits;
            misses = acc.misses + s.misses;
            evictions = acc.evictions + s.evictions;
            entries = acc.entries + Hashtbl.length s.table;
            bytes = acc.bytes + s.bytes }))
    { hits = 0; misses = 0; evictions = 0; entries = 0; bytes = 0 }
    t.shards

let publish t obs =
  let c = counters t in
  Obs.set_count obs "eval.cache.hits" c.hits;
  Obs.set_count obs "eval.cache.misses" c.misses;
  Obs.set_count obs "eval.cache.evictions" c.evictions;
  Obs.set_gauge obs "eval.cache.entries" (float_of_int c.entries);
  Obs.set_gauge obs "eval.cache.bytes" (float_of_int c.bytes)

let memo ?cache ?stats ~key ~arity ~to_floats ~of_floats compute =
  match cache with
  | None -> compute stats
  | Some t ->
    let k = Lazy.force key in
    (match find t k with
     | Some e when Array.length e.floats = arity ->
       (match stats, e.stats with
        | Some into, Some recorded -> Resilience.merge_into ~into recorded
        | _ -> ());
       of_floats e.floats
     | _ ->
       (* compute against a fresh accumulator so the entry can carry
          exactly this computation's deltas for replay *)
       let local = Resilience.create () in
       let v = compute (Some local) in
       (match stats with
        | Some into -> Resilience.merge_into ~into local
        | None -> ());
       let snapshot =
         if local.Resilience.attempted = 0 then None else Some local
       in
       store t k { floats = to_floats v; stats = snapshot };
       v)

(* ---- persistence ------------------------------------------------- *)

let magic = "mtsize-eval-cache 1"

let hex_of_string s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let string_of_hex h =
  let n = String.length h in
  if n mod 2 <> 0 then failwith "Eval.Cache: odd hex key";
  String.init (n / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let save t file =
  (* shards in index order, each tail (LRU) first, so load re-inserts
     in recency order; with the same shard count the reloaded cache has
     identical per-shard recency, and with a different count the
     entries simply re-route (the key encodes its own shard) *)
  let lines =
    Array.to_list t.shards
    |> List.concat_map (fun s ->
           Mutex.protect s.lock (fun () ->
               let rec collect acc = function
                 | None -> acc
                 | Some n ->
                   let b = Buffer.create 64 in
                   Buffer.add_string b (hex_of_string n.nkey);
                   Buffer.add_char b ' ';
                   Buffer.add_string b
                     (string_of_int (Array.length n.value.floats));
                   Array.iter
                     (fun f ->
                       Buffer.add_char b ' ';
                       Buffer.add_string b
                         (Printf.sprintf "%Lx" (Int64.bits_of_float f)))
                     n.value.floats;
                   collect (Buffer.contents b :: acc) n.next
               in
               collect [] s.head))
  in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      output_char oc '\n';
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines)

let load ?max_entries ?shards file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let first = try input_line ic with End_of_file -> "" in
      if first <> magic then
        failwith (Printf.sprintf "Eval.Cache.load %s: bad magic %S" file first);
      let t = create ?max_entries ?shards () in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then begin
             match String.split_on_char ' ' line with
             | keyhex :: count :: bits ->
               let n =
                 try int_of_string count
                 with _ -> failwith ("Eval.Cache.load: bad count in " ^ file)
               in
               if List.length bits <> n then
                 failwith ("Eval.Cache.load: truncated entry in " ^ file);
               let floats =
                 Array.of_list
                   (List.map
                      (fun h ->
                        match Int64.of_string_opt ("0x" ^ h) with
                        | Some b -> Int64.float_of_bits b
                        | None ->
                          failwith ("Eval.Cache.load: bad float in " ^ file))
                      bits)
               in
               store t (string_of_hex keyhex) { floats; stats = None }
             | _ -> failwith ("Eval.Cache.load: malformed line in " ^ file)
           end
         done
       with End_of_file -> ());
      (* loaded entries are population, not traffic *)
      Array.iter
        (fun s ->
          s.misses <- 0;
          s.hits <- 0)
        t.shards;
      t)
