(* Flattened circuit + event-driven propagation.  See the .mli for the
   invariants; the key one is that gate ids are topological (checked in
   Circuit.freeze) and fanout edges only point forward in gate-id
   order, so a single monotone sweep over a pending bitset visits each
   dirty gate exactly once, in dependency order, and the fixpoint
   equals a dense re-evaluation. *)

(* levels packed one per byte: 0 = L0, 1 = L1, 2 = X *)
let b_l0 = '\000'
let b_l1 = '\001'
let b_x = '\002'

let byte_of_level = function
  | Signal.L0 -> b_l0
  | Signal.L1 -> b_l1
  | Signal.X -> b_x

let level_of_byte = function
  | '\000' -> Signal.L0
  | '\001' -> Signal.L1
  | _ -> Signal.X

(* opcodes; variable arities are carried by the fanin CSR span *)
let op_inv = 0
let op_buf = 1
let op_nand = 2
let op_nor = 3
let op_and = 4
let op_or = 5
let op_xor2 = 6
let op_xnor2 = 7
let op_aoi21 = 8
let op_oai21 = 9
let op_carry_inv = 10
let op_sum_inv = 11

let opcode = function
  | Gate.Inv -> op_inv
  | Gate.Buf -> op_buf
  | Gate.Nand _ -> op_nand
  | Gate.Nor _ -> op_nor
  | Gate.And _ -> op_and
  | Gate.Or _ -> op_or
  | Gate.Xor2 -> op_xor2
  | Gate.Xnor2 -> op_xnor2
  | Gate.Aoi21 -> op_aoi21
  | Gate.Oai21 -> op_oai21
  | Gate.Carry_inv -> op_carry_inv
  | Gate.Sum_inv -> op_sum_inv

type t = {
  circuit : Circuit.t;
  n_nets : int;
  n_gates : int;
  op : int array; (* gate -> opcode *)
  fanin_off : int array; (* n_gates + 1 *)
  fanin : int array; (* flat pin nets *)
  out_net : int array; (* gate -> output net *)
  fanout_off : int array; (* n_nets + 1 *)
  fanout : int array; (* flat reader gate ids *)
  inputs : int array;
  ties : (int * bool) array;
}

let compile c =
  let n_nets = Circuit.num_nets c in
  let gates = Circuit.gates c in
  let n_gates = Array.length gates in
  let op = Array.make n_gates 0 in
  let out_net = Array.make n_gates 0 in
  let fanin_off = Array.make (n_gates + 1) 0 in
  Array.iter
    (fun (g : Circuit.gate_inst) ->
      fanin_off.(g.Circuit.id + 1) <- Array.length g.Circuit.inputs)
    gates;
  for g = 1 to n_gates do
    fanin_off.(g) <- fanin_off.(g) + fanin_off.(g - 1)
  done;
  let fanin = Array.make fanin_off.(n_gates) 0 in
  let fanout_off = Array.make (n_nets + 1) 0 in
  Array.iter
    (fun (g : Circuit.gate_inst) ->
      op.(g.Circuit.id) <- opcode g.Circuit.kind;
      out_net.(g.Circuit.id) <- g.Circuit.output;
      Array.iteri
        (fun i n ->
          fanin.(fanin_off.(g.Circuit.id) + i) <- n;
          fanout_off.(n + 1) <- fanout_off.(n + 1) + 1)
        g.Circuit.inputs)
    gates;
  for n = 1 to n_nets do
    fanout_off.(n) <- fanout_off.(n) + fanout_off.(n - 1)
  done;
  let fanout = Array.make fanout_off.(n_nets) 0 in
  let cursor = Array.copy fanout_off in
  Array.iter
    (fun (g : Circuit.gate_inst) ->
      Array.iter
        (fun n ->
          fanout.(cursor.(n)) <- g.Circuit.id;
          cursor.(n) <- cursor.(n) + 1)
        g.Circuit.inputs)
    gates;
  { circuit = c;
    n_nets;
    n_gates;
    op;
    fanin_off;
    fanin;
    out_net;
    fanout_off;
    fanout;
    inputs = Circuit.inputs c;
    ties = Circuit.ties c }

(* A tiny physical-identity LRU so every consumer of a hot circuit (the
   breakpoint simulator, vector ranking, lint, the CLI) shares one
   compilation, including from Par.Pool worker domains.  Bounded so
   generated throwaway circuits (QCheck corpora) can't pin memory. *)
let memo_lock = Mutex.create ()
let memo : (Circuit.t * t) list ref = ref []
let memo_cap = 8

let of_circuit c =
  Mutex.lock memo_lock;
  let hit =
    List.find_opt (fun (c', _) -> c' == c) !memo |> Option.map snd
  in
  match hit with
  | Some t ->
    memo := (c, t) :: List.filter (fun (c', _) -> c' != c) !memo;
    Mutex.unlock memo_lock;
    t
  | None ->
    (* compile outside the lock: compilation is pure, and a rare
       duplicate compile beats serializing every domain behind a big
       circuit's flattening *)
    Mutex.unlock memo_lock;
    let t = compile c in
    Mutex.lock memo_lock;
    (match List.find_opt (fun (c', _) -> c' == c) !memo with
     | Some (_, t') ->
       Mutex.unlock memo_lock;
       t'
     | None ->
       memo := (c, t) :: !memo;
       (if List.length !memo > memo_cap then
          memo := List.filteri (fun i _ -> i < memo_cap) !memo);
       Mutex.unlock memo_lock;
       t)

let num_gates t = t.n_gates
let num_nets t = t.n_nets

type state = Bytes.t

(* int-coded three-valued ops; must mirror Signal exactly (the folds
   below are order-insensitive, matching Signal.all/any/parity) *)
let not3 v = if v = 2 then 2 else 1 - v
let and3 a b = if a = 0 || b = 0 then 0 else if a = 1 && b = 1 then 1 else 2
let or3 a b = if a = 1 || b = 1 then 1 else if a = 0 && b = 0 then 0 else 2
let xor3 a b = if a = 2 || b = 2 then 2 else a lxor b

(* closure-free on purpose: this is the innermost loop of the worklist
   and of [init]'s dense pass *)
let eval_gate t st g =
  let off = t.fanin_off.(g) in
  let fanin = t.fanin in
  match t.op.(g) with
  | 0 (* inv *) -> not3 (Char.code (Bytes.unsafe_get st fanin.(off)))
  | 1 (* buf *) -> Char.code (Bytes.unsafe_get st fanin.(off))
  | 2 (* nand *) ->
    let lim = t.fanin_off.(g + 1) in
    let acc = ref 1 in
    for i = off to lim - 1 do
      acc := and3 !acc (Char.code (Bytes.unsafe_get st fanin.(i)))
    done;
    not3 !acc
  | 3 (* nor *) ->
    let lim = t.fanin_off.(g + 1) in
    let acc = ref 0 in
    for i = off to lim - 1 do
      acc := or3 !acc (Char.code (Bytes.unsafe_get st fanin.(i)))
    done;
    not3 !acc
  | 4 (* and *) ->
    let lim = t.fanin_off.(g + 1) in
    let acc = ref 1 in
    for i = off to lim - 1 do
      acc := and3 !acc (Char.code (Bytes.unsafe_get st fanin.(i)))
    done;
    !acc
  | 5 (* or *) ->
    let lim = t.fanin_off.(g + 1) in
    let acc = ref 0 in
    for i = off to lim - 1 do
      acc := or3 !acc (Char.code (Bytes.unsafe_get st fanin.(i)))
    done;
    !acc
  | 6 (* xor2 *) ->
    xor3
      (Char.code (Bytes.unsafe_get st fanin.(off)))
      (Char.code (Bytes.unsafe_get st fanin.(off + 1)))
  | 7 (* xnor2 *) ->
    not3
      (xor3
         (Char.code (Bytes.unsafe_get st fanin.(off)))
         (Char.code (Bytes.unsafe_get st fanin.(off + 1))))
  | 8 (* aoi21 *) ->
    not3
      (or3
         (and3
            (Char.code (Bytes.unsafe_get st fanin.(off)))
            (Char.code (Bytes.unsafe_get st fanin.(off + 1))))
         (Char.code (Bytes.unsafe_get st fanin.(off + 2))))
  | 9 (* oai21 *) ->
    not3
      (and3
         (or3
            (Char.code (Bytes.unsafe_get st fanin.(off)))
            (Char.code (Bytes.unsafe_get st fanin.(off + 1))))
         (Char.code (Bytes.unsafe_get st fanin.(off + 2))))
  | 10 (* carry_inv: not (majority3 a b c) *) ->
    let a = Char.code (Bytes.unsafe_get st fanin.(off))
    and b = Char.code (Bytes.unsafe_get st fanin.(off + 1))
    and c = Char.code (Bytes.unsafe_get st fanin.(off + 2)) in
    let ones = (if a = 1 then 1 else 0) + (if b = 1 then 1 else 0)
               + (if c = 1 then 1 else 0)
    and zeros = (if a = 0 then 1 else 0) + (if b = 0 then 1 else 0)
                + (if c = 0 then 1 else 0) in
    if ones >= 2 then 0 else if zeros >= 2 then 1 else 2
  | _ (* sum_inv: not (parity a b c); the carry_bar pin is electrical
         only, exactly as in Gate.logic *) ->
    not3
      (xor3
         (xor3
            (Char.code (Bytes.unsafe_get st fanin.(off)))
            (Char.code (Bytes.unsafe_get st fanin.(off + 1))))
         (Char.code (Bytes.unsafe_get st fanin.(off + 2))))

let check_inputs fn t ins =
  if Array.length ins <> Array.length t.inputs then
    invalid_arg
      (Printf.sprintf "Event_sim.%s: input length mismatch (%d <> %d)" fn
         (Array.length ins) (Array.length t.inputs))

let init t ins =
  check_inputs "init" t ins;
  let st = Bytes.make t.n_nets b_x in
  Array.iteri
    (fun i n -> Bytes.unsafe_set st n (byte_of_level ins.(i)))
    t.inputs;
  Array.iter
    (fun (n, v) -> Bytes.unsafe_set st n (if v then b_l1 else b_l0))
    t.ties;
  for g = 0 to t.n_gates - 1 do
    Bytes.unsafe_set st t.out_net.(g) (Char.unsafe_chr (eval_gate t st g))
  done;
  st

let level st n = level_of_byte (Bytes.get st n)
let levels t st = Array.init t.n_nets (fun n -> level st n)

type move = {
  pre : state;
  post : state;
  touched : Circuit.gate_id list;
}

(* index of the (single) set bit of [b], 0 <= index < 32 *)
let bit_index b =
  let n = ref 0 and b = ref b in
  if !b land 0xFFFF0000 <> 0 then begin n := !n + 16; b := !b lsr 16 end;
  if !b land 0xFF00 <> 0 then begin n := !n + 8; b := !b lsr 8 end;
  if !b land 0xF0 <> 0 then begin n := !n + 4; b := !b lsr 4 end;
  if !b land 0xC <> 0 then begin n := !n + 2; b := !b lsr 2 end;
  if !b land 0x2 <> 0 then incr n;
  !n

(* step telemetry buckets: touched-gate counts span mirror-adder (tens)
   to random20000 scale, sparsity is a percentage of the gate count *)
let touched_buckets =
  [| 1.; 4.; 16.; 64.; 256.; 1024.; 4096.; 16384.; 65536. |]

let pct_buckets = [| 0.1; 0.3; 1.0; 3.0; 10.0; 30.0; 100.0 |]

let step ?(obs = Obs.disabled) t st ins =
  check_inputs "step" t ins;
  let post = Bytes.copy st in
  (* pending worklist as a bitset, 32 gate ids per word.  All pushes go
     forward (a gate's fanout has strictly larger ids), so one monotone
     word sweep pops every dirty gate in ascending = topological order:
     O(1) insertion, no heap, and the whole-step overhead beyond the
     touched gates is just [n_gates/32] word reads. *)
  let nw = (t.n_gates + 31) lsr 5 in
  let pending = Array.make (max nw 1) 0 in
  let fanout = t.fanout and fanout_off = t.fanout_off in
  let push_fanout n =
    for i = fanout_off.(n) to fanout_off.(n + 1) - 1 do
      let g = Array.unsafe_get fanout i in
      let w = g lsr 5 in
      Array.unsafe_set pending w
        (Array.unsafe_get pending w lor (1 lsl (g land 31)))
    done
  in
  Array.iteri
    (fun i n ->
      let v = byte_of_level ins.(i) in
      if Bytes.unsafe_get post n <> v then begin
        Bytes.unsafe_set post n v;
        push_fanout n
      end)
    t.inputs;
  let touched = ref [] in
  (* pending-bitset occupancy: words holding at least one dirty gate
     when the sweep reaches them (later pushes into a not-yet-swept
     word count once) *)
  let words_active = ref 0 in
  for w = 0 to nw - 1 do
    if Array.unsafe_get pending w <> 0 then incr words_active;
    (* re-read each iteration: processing a gate can set more bits in
       its own word (strictly above the one just cleared) *)
    while Array.unsafe_get pending w <> 0 do
      let word = Array.unsafe_get pending w in
      let b = word land -word in
      Array.unsafe_set pending w (word land (word - 1));
      let g = (w lsl 5) + bit_index b in
      touched := g :: !touched;
      let v = Char.unsafe_chr (eval_gate t post g) in
      let out = t.out_net.(g) in
      if Bytes.unsafe_get post out <> v then begin
        Bytes.unsafe_set post out v;
        push_fanout out
      end
    done
  done;
  let m = { pre = st; post; touched = List.rev !touched } in
  if Obs.metrics_on obs then begin
    let n_touched = List.length m.touched in
    Obs.incr obs "event_sim.steps";
    Obs.incr obs ~by:n_touched "event_sim.touched_gates";
    Obs.observe ~buckets:touched_buckets obs "event_sim.touched_per_step"
      (float_of_int n_touched);
    Obs.observe ~buckets:pct_buckets obs "event_sim.touched_pct"
      (100.0 *. float_of_int n_touched /. float_of_int (max 1 t.n_gates));
    Obs.observe ~buckets:touched_buckets obs
      "event_sim.pending_words_per_step"
      (float_of_int !words_active)
  end;
  m

let transition t ~before ~after = step t (init t before) after

let switched_gates t m =
  List.filter
    (fun g ->
      let n = t.out_net.(g) in
      Bytes.get m.pre n <> Bytes.get m.post n)
    m.touched

let falling_gates t m =
  List.filter
    (fun g ->
      let n = t.out_net.(g) in
      Bytes.get m.pre n = b_l1 && Bytes.get m.post n = b_l0)
    m.touched

let activity t m = List.length (switched_gates t m)

let changed_nets t m =
  (* primary-input nets that moved, then touched gate outputs that
     moved; merging by net id reproduces the dense 0..nets-1 scan
     order (gate output nets are ascending in gate id because every
     add_gate allocates a fresh net, but input nets may interleave in
     hand-built circuits, so sort rather than assume) *)
  let acc = ref [] in
  Array.iter
    (fun n ->
      let a = Bytes.get m.pre n and b = Bytes.get m.post n in
      if a <> b then
        acc := (n, level_of_byte a, level_of_byte b) :: !acc)
    t.inputs;
  List.iter
    (fun g ->
      let n = t.out_net.(g) in
      let a = Bytes.get m.pre n and b = Bytes.get m.post n in
      if a <> b then
        acc := (n, level_of_byte a, level_of_byte b) :: !acc)
    m.touched;
  List.sort (fun (n1, _, _) (n2, _, _) -> compare n1 n2) !acc
