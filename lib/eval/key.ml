type t = Buffer.t

let create () = Buffer.create 256
let raw b s = Buffer.add_string b s

(* [string_of_int i] appended, written without the C formatter: every
   key frames its lengths and ints this way.  The digits come from
   [n <= 0], so [min_int] needs no special case. *)
let decimal b i =
  let rec digits n =
    if n <= -10 then digits (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))
  in
  if i < 0 then begin
    Buffer.add_char b '-';
    digits i
  end
  else digits (-i)

let string b s =
  Buffer.add_char b 's';
  decimal b (String.length s);
  Buffer.add_char b ':';
  Buffer.add_string b s

let int b i =
  Buffer.add_char b 'i';
  decimal b i;
  Buffer.add_char b ';'

let bool b v = Buffer.add_char b (if v then 'T' else 'F')

(* the bit pattern as [Printf.sprintf "%Lx"] prints it (lowercase hex of
   the unsigned 64 bits, no leading zeros), written without Printf: a
   warm cache hit spends a third of its time here otherwise *)
let hex_digits = "0123456789abcdef"

let float b f =
  Buffer.add_char b 'f';
  let x = Int64.bits_of_float f in
  let shift = ref 60 in
  while !shift > 0 && Int64.equal (Int64.shift_right_logical x !shift) 0L do
    shift := !shift - 4
  done;
  while !shift >= 0 do
    Buffer.add_char b
      hex_digits.[Int64.to_int (Int64.shift_right_logical x !shift) land 15];
    shift := !shift - 4
  done;
  Buffer.add_char b ';'

let option b f = function
  | None -> Buffer.add_char b 'N'
  | Some v ->
    Buffer.add_char b 'S';
    f b v

let ints b l =
  int b (List.length l);
  List.iter
    (fun (net, v) ->
      int b net;
      int b v)
    l

let mosfet b (p : Device.Mosfet.params) =
  Buffer.add_char b
    (match p.Device.Mosfet.polarity with Nmos -> 'n' | Pmos -> 'p');
  float b p.Device.Mosfet.vt0;
  float b p.Device.Mosfet.kp;
  float b p.Device.Mosfet.gamma;
  float b p.Device.Mosfet.phi;
  float b p.Device.Mosfet.lambda;
  float b p.Device.Mosfet.n_sub;
  float b p.Device.Mosfet.i0

let tech b (t : Device.Tech.t) =
  string b t.Device.Tech.name;
  float b t.Device.Tech.vdd;
  float b t.Device.Tech.lmin;
  mosfet b t.Device.Tech.nmos;
  mosfet b t.Device.Tech.pmos;
  mosfet b t.Device.Tech.sleep_nmos;
  mosfet b t.Device.Tech.sleep_pmos;
  float b t.Device.Tech.alpha;
  float b t.Device.Tech.cg_per_wl;
  float b t.Device.Tech.cj_per_wl;
  float b t.Device.Tech.cwire;
  float b t.Device.Tech.wl_n_unit;
  float b t.Device.Tech.wl_p_unit

let sleep b (s : Device.Sleep.t) =
  mosfet b s.Device.Sleep.params;
  float b s.Device.Sleep.wl;
  float b s.Device.Sleep.vdd

let circuit b c =
  let module C = Netlist.Circuit in
  tech b (C.tech c);
  int b (C.num_nets c);
  let nets a =
    int b (Array.length a);
    Array.iter (fun n -> int b n) a
  in
  nets (C.inputs c);
  nets (C.outputs c);
  let ties = C.ties c in
  int b (Array.length ties);
  Array.iter
    (fun (n, v) ->
      int b n;
      bool b v)
    ties;
  let gates = C.gates c in
  int b (Array.length gates);
  Array.iter
    (fun (g : C.gate_inst) ->
      int b g.C.id;
      string b (Netlist.Gate.name g.C.kind);
      int b (Netlist.Gate.arity g.C.kind);
      nets g.C.inputs;
      int b g.C.output;
      float b g.C.strength)
    gates;
  (* load_capacitance folds in explicit extra loads (add_load), which are
     otherwise invisible through the public accessors *)
  for n = 0 to C.num_nets c - 1 do
    float b (C.load_capacitance c n)
  done

let contents = Buffer.contents
let digest b = Digest.string (Buffer.contents b)
