type net = int
type gate_id = int

type gate_inst = {
  id : gate_id;
  kind : Gate.kind;
  inputs : net array;
  output : net;
  strength : float;
}

type builder = {
  b_tech : Device.Tech.t;
  mutable b_next_net : int;
  mutable b_gates : gate_inst list; (* reversed *)
  mutable b_n_gates : int;
  mutable b_inputs : net list;      (* reversed *)
  mutable b_outputs : net list;     (* reversed *)
  mutable b_ties : (net * bool) list;
  b_names : (net, string) Hashtbl.t;
  b_by_name : (string, net) Hashtbl.t;
  b_loads : (net, float) Hashtbl.t;
  b_driven : (net, unit) Hashtbl.t;
}

type t = {
  tech : Device.Tech.t;
  num_nets : int;
  inputs : net array;
  outputs : net array;
  gates : gate_inst array; (* topological order *)
  ties : (net * bool) array;
  driver : gate_inst option array;       (* per net *)
  fanout : (gate_id * int) list array;   (* per net *)
  load : float array;                    (* per net *)
  extra_load : float array;              (* explicit add_load portion *)
  names : string array;
  by_name : (string, net) Hashtbl.t;
}

let builder b_tech =
  { b_tech;
    b_next_net = 0;
    b_gates = [];
    b_n_gates = 0;
    b_inputs = [];
    b_outputs = [];
    b_ties = [];
    b_names = Hashtbl.create 64;
    b_by_name = Hashtbl.create 64;
    b_loads = Hashtbl.create 16;
    b_driven = Hashtbl.create 64 }

let fresh_net ?name b =
  let n = b.b_next_net in
  b.b_next_net <- n + 1;
  (match name with
   | Some s ->
     if Hashtbl.mem b.b_by_name s then
       invalid_arg (Printf.sprintf "Circuit: duplicate net name %S" s);
     Hashtbl.replace b.b_names n s;
     Hashtbl.replace b.b_by_name s n
   | None -> ());
  n

let add_input ?name b =
  let n = fresh_net ?name b in
  b.b_inputs <- n :: b.b_inputs;
  Hashtbl.replace b.b_driven n ();
  n

let add_tie ?name b value =
  let n = fresh_net ?name b in
  b.b_ties <- (n, value) :: b.b_ties;
  Hashtbl.replace b.b_driven n ();
  n

let add_gate ?name ?(strength = 1.0) b kind ins =
  let want = Gate.arity kind in
  if List.length ins <> want then
    invalid_arg
      (Printf.sprintf "Circuit.add_gate %s: expected %d inputs, got %d"
         (Gate.name kind) want (List.length ins));
  List.iter
    (fun i ->
      if i < 0 || i >= b.b_next_net then
        invalid_arg "Circuit.add_gate: unknown input net";
      if not (Hashtbl.mem b.b_driven i) then
        invalid_arg "Circuit.add_gate: input net has no driver")
    ins;
  if strength <= 0.0 then invalid_arg "Circuit.add_gate: strength <= 0";
  let output = fresh_net ?name b in
  Hashtbl.replace b.b_driven output ();
  let g =
    { id = b.b_n_gates;
      kind;
      inputs = Array.of_list ins;
      output;
      strength }
  in
  b.b_gates <- g :: b.b_gates;
  b.b_n_gates <- b.b_n_gates + 1;
  output

let mark_output ?name b n =
  if n < 0 || n >= b.b_next_net then
    invalid_arg "Circuit.mark_output: unknown net";
  (match name with
   | Some s when not (Hashtbl.mem b.b_by_name s) ->
     Hashtbl.replace b.b_names n s;
     Hashtbl.replace b.b_by_name s n
   | Some _ | None -> ());
  b.b_outputs <- n :: b.b_outputs

let add_load b n c =
  if n < 0 || n >= b.b_next_net then
    invalid_arg "Circuit.add_load: unknown net";
  if c < 0.0 then invalid_arg "Circuit.add_load: negative capacitance";
  let prev = Option.value ~default:0.0 (Hashtbl.find_opt b.b_loads n) in
  Hashtbl.replace b.b_loads n (prev +. c)

let compute_loads ~tech ~num_nets ~gates ~driver ~fanout ~extra_load =
  let load = Array.make num_nets 0.0 in
  for n = 0 to num_nets - 1 do
    let receivers =
      List.fold_left
        (fun acc (gid, _pin) ->
          let (g : gate_inst) = gates.(gid) in
          let d = Gate.drive tech ~strength:g.strength g.kind in
          acc +. d.Gate.cin)
        0.0 fanout.(n)
    in
    let driver_j =
      match driver.(n) with
      | Some (g : gate_inst) ->
        (Gate.drive tech ~strength:g.strength g.kind).Gate.cout_j
      | None -> 0.0
    in
    let wire =
      tech.Device.Tech.cwire *. float_of_int (List.length fanout.(n))
    in
    load.(n) <- receivers +. driver_j +. wire +. extra_load.(n)
  done;
  load

let freeze b =
  let num_nets = b.b_next_net in
  let gates_unordered = Array.of_list (List.rev b.b_gates) in
  let driver = Array.make num_nets None in
  Array.iter
    (fun (g : gate_inst) ->
      match driver.(g.output) with
      | Some _ -> invalid_arg "Circuit.freeze: multiply-driven net"
      | None -> driver.(g.output) <- Some g)
    gates_unordered;
  (* Gates are created in dependency order by construction (an input net
     must already exist and be driven), so the creation order is already
     topological; verify anyway. *)
  let ready = Array.make num_nets false in
  List.iter (fun n -> ready.(n) <- true) b.b_inputs;
  List.iter (fun (n, _) -> ready.(n) <- true) b.b_ties;
  Array.iter
    (fun (g : gate_inst) ->
      Array.iter
        (fun i ->
          if not ready.(i) then
            invalid_arg "Circuit.freeze: gate input not topologically ready")
        g.inputs;
      ready.(g.output) <- true)
    gates_unordered;
  let fanout = Array.make num_nets [] in
  Array.iter
    (fun (g : gate_inst) ->
      Array.iteri
        (fun pin i -> fanout.(i) <- (g.id, pin) :: fanout.(i))
        g.inputs)
    gates_unordered;
  Array.iteri (fun i l -> fanout.(i) <- List.rev l) fanout;
  let tech = b.b_tech in
  let extra_load =
    Array.init num_nets (fun n ->
        Option.value ~default:0.0 (Hashtbl.find_opt b.b_loads n))
  in
  let load =
    compute_loads ~tech ~num_nets ~gates:gates_unordered ~driver ~fanout
      ~extra_load
  in
  let names =
    Array.init num_nets (fun n ->
        match Hashtbl.find_opt b.b_names n with
        | Some s -> s
        | None -> Printf.sprintf "n%d" n)
  in
  let by_name = Hashtbl.create num_nets in
  Array.iteri (fun n s -> Hashtbl.replace by_name s n) names;
  { tech;
    num_nets;
    inputs = Array.of_list (List.rev b.b_inputs);
    outputs = Array.of_list (List.rev b.b_outputs);
    gates = gates_unordered;
    ties = Array.of_list (List.rev b.b_ties);
    driver;
    fanout;
    load;
    extra_load;
    names;
    by_name }

let tech t = t.tech
let num_nets t = t.num_nets
let num_gates t = Array.length t.gates
let inputs t = t.inputs

(* no list is built: the groups are summed, checked in order, and then
   each one's [Signal.bits_of_int] is copied into one array *)
let pack_ints t groups =
  let n_inputs = Array.length t.inputs in
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 groups in
  if total <> n_inputs then
    invalid_arg
      (Printf.sprintf
         "Circuit.pack_ints: widths [%s] cover %d bit(s) but the circuit \
          has %d primary inputs"
         (String.concat "; " (List.map (fun (w, _) -> string_of_int w) groups))
         total n_inputs);
  List.iteri
    (fun i (w, v) ->
      if w < 0 || v < 0 || (w < Sys.int_size - 1 && v lsr max w 0 <> 0) then
        invalid_arg
          (Printf.sprintf
             "Circuit.pack_ints: group %d (width %d) cannot hold value %d" i w
             v))
    groups;
  let bits = Array.make n_inputs Signal.L0 in
  let rec fill pos = function
    | [] -> ()
    | (w, v) :: rest ->
      Array.blit (Signal.bits_of_int ~width:w v) 0 bits pos w;
      fill (pos + w) rest
  in
  fill 0 groups;
  bits

let outputs t = t.outputs
let ties t = t.ties
let gates t = t.gates
let gate_of_output t n = t.driver.(n)
let fanout t n = t.fanout.(n)
let load_capacitance t n = t.load.(n)
let net_name t n = t.names.(n)

let find_net t s =
  match Hashtbl.find_opt t.by_name s with
  | Some n -> n
  | None -> raise Not_found

let total_pulldown_wl t =
  Array.fold_left
    (fun acc (g : gate_inst) ->
      let d = Gate.drive t.tech ~strength:g.strength g.kind in
      acc +. d.Gate.wl_pull_down)
    0.0 t.gates

let transistor_count t =
  Array.fold_left
    (fun acc (g : gate_inst) -> acc + Gate.transistor_count g.kind)
    0 t.gates

let pp_stats fmt t =
  Format.fprintf fmt
    "circuit: %d nets, %d gates, %d inputs, %d outputs, %d transistors"
    t.num_nets (num_gates t) (Array.length t.inputs)
    (Array.length t.outputs) (transistor_count t)

let with_strengths t f =
  let gates =
    Array.map
      (fun (g : gate_inst) ->
        let strength = f g in
        if strength <= 0.0 then
          invalid_arg "Circuit.with_strengths: strength <= 0";
        { g with strength })
      t.gates
  in
  let driver = Array.map (Option.map (fun (g : gate_inst) -> gates.(g.id)))
      t.driver in
  let load =
    compute_loads ~tech:t.tech ~num_nets:t.num_nets ~gates ~driver
      ~fanout:t.fanout ~extra_load:t.extra_load
  in
  { t with gates; driver; load }

let gate_depths t =
  let depth = Array.make t.num_nets 0 in
  Array.map
    (fun (g : gate_inst) ->
      let d =
        1 + Array.fold_left (fun acc n -> Int.max acc depth.(n)) 0 g.inputs
      in
      depth.(g.output) <- d;
      d)
    t.gates

let logic_depth t = Array.fold_left Int.max 0 (gate_depths t)

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph circuit {\n  rankdir=LR;\n";
  Array.iter
    (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" [shape=box];\n" t.names.(n)))
    t.inputs;
  Array.iter
    (fun ((n : net), value) ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" [shape=box,label=\"%s\"];\n" t.names.(n)
           (if value then "1" else "0")))
    t.ties;
  Array.iter
    (fun (g : gate_inst) ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" [label=\"%s\"];\n" t.names.(g.output)
           (Gate.name g.kind));
      Array.iter
        (fun i ->
          Buffer.add_string buf
            (Printf.sprintf "  \"%s\" -> \"%s\";\n" t.names.(i)
               t.names.(g.output)))
        g.inputs)
    t.gates;
  Array.iter
    (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" [peripheries=2];\n" t.names.(n)))
    t.outputs;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
