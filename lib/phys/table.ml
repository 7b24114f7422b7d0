type t = {
  cols : string list;
  width : int;
  mutable body : string list list; (* reversed *)
}

let create ~columns =
  if columns = [] then invalid_arg "Table.create: no columns";
  { cols = columns; width = List.length columns; body = [] }

let add_row t row =
  if List.length row <> t.width then
    invalid_arg "Table.add_row: width mismatch";
  t.body <- row :: t.body

let add_floats t xs = add_row t (List.map (Printf.sprintf "%.6g") xs)

let rows t = List.rev t.body

let csv_escape field =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n') field
  in
  if not needs_quoting then field
  else
    let buf = Buffer.create (String.length field + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf c)
      field;
    Buffer.add_char buf '"';
    Buffer.contents buf

let to_csv t =
  let line row = String.concat "," (List.map csv_escape row) in
  String.concat "\n" (line t.cols :: List.map line (rows t)) ^ "\n"

let write_csv t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_csv t))

let waveform_csv waves ~t0 ~t1 ~n =
  if waves = [] then invalid_arg "Table.waveform_csv: empty";
  let t = create ~columns:("t" :: List.map fst waves) in
  let grid = Float_utils.linspace t0 t1 n in
  Array.iter
    (fun time ->
      add_floats t
        (time :: List.map (fun (_, w) -> Pwl.value_at w time) waves))
    grid;
  t
