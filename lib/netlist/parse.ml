exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun m -> raise (Parse_error (line, m))) fmt

let kind_of_string s =
  let arity prefix =
    let plen = String.length prefix in
    if String.length s > plen && String.sub s 0 plen = prefix then
      int_of_string_opt (String.sub s plen (String.length s - plen))
    else None
  in
  match s with
  | "inv" -> Some Gate.Inv
  | "buf" -> Some Gate.Buf
  | "xor2" -> Some Gate.Xor2
  | "xnor2" -> Some Gate.Xnor2
  | "aoi21" -> Some Gate.Aoi21
  | "oai21" -> Some Gate.Oai21
  | "carry_inv" -> Some Gate.Carry_inv
  | "sum_inv" -> Some Gate.Sum_inv
  | _ ->
    (match arity "nand" with
     | Some n when n >= 1 -> Some (Gate.Nand n)
     | Some _ | None ->
       (match arity "nor" with
        | Some n when n >= 1 -> Some (Gate.Nor n)
        | Some _ | None ->
          (match arity "and" with
           | Some n when n >= 1 -> Some (Gate.And n)
           | Some _ | None ->
             (match arity "or" with
              | Some n when n >= 1 -> Some (Gate.Or n)
              | Some _ | None -> None))))

let float_with_suffix line s =
  let n = String.length s in
  if n = 0 then fail line "empty number";
  let suffix_scale = function
    | 'f' -> Some 1e-15
    | 'p' -> Some 1e-12
    | 'n' -> Some 1e-9
    | 'u' -> Some 1e-6
    | 'm' -> Some 1e-3
    | 'k' -> Some 1e3
    | _ -> None
  in
  match suffix_scale s.[n - 1] with
  | Some scale ->
    (match float_of_string_opt (String.sub s 0 (n - 1)) with
     | Some v -> v *. scale
     | None -> fail line "bad number %S" s)
  | None ->
    (match float_of_string_opt s with
     | Some v -> v
     | None -> fail line "bad number %S" s)

let circuit_of_string tech text =
  let b = Circuit.builder tech in
  let names = Hashtbl.create 64 in
  let resolve line name =
    match Hashtbl.find_opt names name with
    | Some n -> n
    | None -> fail line "unknown net %S" name
  in
  let declare line name net =
    if Hashtbl.mem names name then fail line "duplicate net %S" name;
    Hashtbl.replace names name net
  in
  let strength = ref 1.0 in
  let outputs = ref [] in
  let handle line words =
    match words with
    | [] -> ()
    | "input" :: nets ->
      if nets = [] then fail line "input: no nets";
      List.iter
        (fun name -> declare line name (Circuit.add_input ~name b))
        nets
    | "tie0" :: nets ->
      List.iter
        (fun name -> declare line name (Circuit.add_tie ~name b false))
        nets
    | "tie1" :: nets ->
      List.iter
        (fun name -> declare line name (Circuit.add_tie ~name b true))
        nets
    | "strength" :: [ v ] ->
      let v = float_with_suffix line v in
      if v <= 0.0 then fail line "strength must be positive";
      strength := v
    | "strength" :: _ -> fail line "strength: expected one value"
    | "gate" :: kind_s :: out :: ins ->
      let kind =
        match kind_of_string kind_s with
        | Some k -> k
        | None -> fail line "unknown gate kind %S" kind_s
      in
      if List.length ins <> Gate.arity kind then
        fail line "gate %s: expected %d inputs, got %d" kind_s
          (Gate.arity kind) (List.length ins);
      let pins = List.map (resolve line) ins in
      (match
         Circuit.add_gate ~name:out ~strength:!strength b kind pins
       with
       | net -> declare line out net
       | exception Invalid_argument m -> fail line "%s" m)
    | "gate" :: _ -> fail line "gate: expected kind, output, inputs"
    | "load" :: [ net; cap ] ->
      let c = float_with_suffix line cap in
      if c < 0.0 then fail line "load: negative capacitance";
      Circuit.add_load b (resolve line net) c
    | "load" :: _ -> fail line "load: expected net and capacitance"
    | "output" :: nets ->
      if nets = [] then fail line "output: no nets";
      List.iter (fun name -> outputs := (line, name) :: !outputs) nets
    | verb :: _ -> fail line "unknown statement %S" verb
  in
  String.split_on_char '\n' text
  |> List.iteri (fun i raw ->
         let line = i + 1 in
         let content =
           match String.index_opt raw '#' with
           | Some j -> String.sub raw 0 j
           | None -> raw
         in
         let words =
           String.split_on_char ' ' content
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun w -> w <> "")
         in
         try handle line words
         with Invalid_argument m -> fail line "%s" m);
  List.iter
    (fun (line, name) -> Circuit.mark_output b (resolve line name))
    (List.rev !outputs);
  match Circuit.freeze b with
  | c ->
    if Array.length (Circuit.outputs c) = 0 then
      fail 0 "no outputs declared";
    c
  | exception Invalid_argument m -> fail 0 "%s" m

let circuit_of_file tech path =
  (* read to end of file rather than by length: pipes and FIFOs work *)
  circuit_of_string tech (In_channel.with_open_text path In_channel.input_all)
