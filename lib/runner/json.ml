(* Deterministic JSON emitter for the results manifest.  No parser and
   no dependency: the journal replays manifest fragments verbatim (byte
   equality), so all that matters is that the same value always renders
   to the same bytes.  Floats use the shortest of %.15g/%.16g/%.17g
   that round-trips the exact IEEE-754 value; NaN and infinities (legal
   outcomes of e.g. a failed characterisation point) become strings,
   since JSON has no spelling for them. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let float_repr f =
  if Float.is_nan f then "\"nan\""
  else if f = Float.infinity then "\"inf\""
  else if f = Float.neg_infinity then "\"-inf\""
  else begin
    let s15 = Printf.sprintf "%.15g" f in
    let s =
      if float_of_string s15 = f then s15
      else
        let s16 = Printf.sprintf "%.16g" f in
        if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f
    in
    (* -0.0 round-trips as "-0"; keep it *)
    s
  end

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_repr f)
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (Obs.Json.escape s);
    Buffer.add_char b '"'
  | Arr l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        write b v)
      l;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        Buffer.add_string b (Obs.Json.escape k);
        Buffer.add_string b "\":";
        write b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b
