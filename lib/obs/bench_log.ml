type entry = { sub : string option; ratio : float option; at : float option }

let find_sub line pat =
  let n = String.length line and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub line i m = pat then Some i
    else go (i + 1)
  in
  go 0

let field_str line key =
  let pat = Printf.sprintf "\"%s\":\"" key in
  match find_sub line pat with
  | None -> None
  | Some i ->
    let start = i + String.length pat in
    (match String.index_from_opt line start '"' with
     | Some stop -> Some (String.sub line start (stop - start))
     | None -> None)

let field_num line key =
  let pat = Printf.sprintf "\"%s\":" key in
  match find_sub line pat with
  | None -> None
  | Some i ->
    let start = i + String.length pat in
    let stop = ref start in
    let n = String.length line in
    while
      !stop < n
      && (match line.[!stop] with
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false)
    do
      incr stop
    done;
    float_of_string_opt (String.sub line start (!stop - start))

let entry line =
  { sub = field_str line "sub";
    ratio = field_num line "ratio";
    at = field_num line "at" }

let read path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map entry

let baseline entries sub =
  List.find_map
    (fun e -> if e.sub = sub then e.ratio else None)
    entries
