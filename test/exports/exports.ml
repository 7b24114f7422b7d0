(* Export check: every [val] a lib/**/*.mli declares must have a caller
   outside its own module (its .ml and .mli) and outside test/, or an
   entry in the allowlist that says why it is kept.

   A caller is a word-boundary match of the value's name in the code of
   lib/, bin/, bench/, perfbench/ or examples/, with comments and string
   literals removed.  A name right after [let], [and], [rec], [val] or
   [external] is being defined or declared there, not used, so it is
   no caller.  The match is by name only, so a common name can be
   "used" by an unrelated value of the same name; the check therefore
   errs towards passing.

   Usage: exports.exe [--root DIR] [--allow FILE]
   Silent and exit 0 when every export passes.  Otherwise prints each
   unlisted uncalled export, each allowlist entry that names no export
   or an export that now has a caller, and a count line, and exits 1.
   [-v] prints the count line on success too. *)

let scanned_dirs = [ "lib"; "bin"; "bench"; "perfbench"; "examples" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec walk dir acc =
  if not (Sys.file_exists dir && Sys.is_directory dir) then acc
  else
    Sys.readdir dir
    |> Array.to_list
    |> List.sort compare
    |> List.fold_left
         (fun acc entry ->
           let path = Filename.concat dir entry in
           if Sys.is_directory path then walk path acc
           else if
             Filename.check_suffix entry ".ml"
             || Filename.check_suffix entry ".mli"
           then path :: acc
           else acc)
         acc

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''

(* The identifiers of OCaml source [s] with their offsets, last first,
   outside comments, string literals (plain and quoted), character
   literals and argument labels. *)
let identifiers s =
  let n = String.length s in
  let ids = ref [] in
  let peek i = if i < n then s.[i] else '\000' in
  let rec skip_string i =
    if i >= n then n
    else
      match s.[i] with
      | '"' -> i + 1
      | '\\' -> skip_string (i + 2)
      | _ -> skip_string (i + 1)
  in
  (* [{id|...|id}]: returns the index after the closing delimiter, or
     [None] if [i] does not open a quoted string. *)
  let quoted_string i =
    let j = ref (i + 1) in
    while !j < n && (match s.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do
      incr j
    done;
    if peek !j <> '|' then None
    else
      let close = "|" ^ String.sub s (i + 1) (!j - i - 1) ^ "}" in
      let len = String.length close in
      let rec find k =
        if k + len > n then n
        else if String.sub s k len = close then k + len
        else find (k + 1)
      in
      Some (find (!j + 1))
  in
  let rec skip_comment i depth =
    if i >= n then n
    else if s.[i] = '(' && peek (i + 1) = '*' then skip_comment (i + 2) (depth + 1)
    else if s.[i] = '*' && peek (i + 1) = ')' then
      if depth = 1 then i + 2 else skip_comment (i + 2) (depth - 1)
    else if s.[i] = '"' then skip_comment (skip_string (i + 1)) depth
    else skip_comment (i + 1) depth
  in
  let rec go i =
    if i < n then
      match s.[i] with
      | '(' when peek (i + 1) = '*' -> go (skip_comment (i + 2) 1)
      | '"' -> go (skip_string (i + 1))
      | '{' -> (
          match quoted_string i with Some j -> go j | None -> go (i + 1))
      | '\'' when peek (i + 1) = '\\' ->
          let rec close k = if k >= n || s.[k] = '\'' then k + 1 else close (k + 1) in
          go (close (i + 2))
      | '\'' when peek (i + 2) = '\'' -> go (i + 3)
      | c when is_ident_start c ->
          let j = ref (i + 1) in
          while !j < n && is_ident_char s.[!j] do
            incr j
          done;
          (* a label ([~name], [?name]) names an argument, not a value *)
          if i = 0 || (s.[i - 1] <> '~' && s.[i - 1] <> '?') then
            ids := (i, String.sub s i (!j - i)) :: !ids;
          go !j
      | c when c >= '0' && c <= '9' ->
          (* a numeric literal such as 1e3 or 0x1p-3 is not a name *)
          let j = ref (i + 1) in
          while !j < n && (is_ident_char s.[!j] || s.[!j] = '.') do
            incr j
          done;
          go !j
      | _ -> go (i + 1)
  in
  go 0;
  !ids

(* The identifiers of [src] in order, each with the word right before
   it when only blanks separate the two.  An operator ([val ( +. ) :
   ...]) is not a name; the word after its [val] does not start right
   after the blank. *)
let words src =
  let rec go prev acc = function
    | [] -> List.rev acc
    | (j, name) :: rest ->
        let before =
          match prev with
          | Some (i, w) ->
              let k = i + String.length w in
              if String.trim (String.sub src k (j - k)) = "" then Some w else None
          | None -> None
        in
        go (Some (j, name)) ((before, name) :: acc) rest
  in
  go None [] (List.rev (identifiers src))

let definers = [ "let"; "and"; "rec"; "val"; "external" ]

(* The value names an interface declares: every [val name :] at any
   nesting depth. *)
let vals_of_mli src =
  words src
  |> List.filter_map (function Some "val", name -> Some name | _ -> None)
  |> List.sort_uniq compare

(* The names [src] uses: every identifier but the ones it defines or
   declares. *)
let uses src =
  words src
  |> List.filter_map (function
       | Some w, _ when List.mem w definers -> None
       | _, name -> Some name)

(* A module is its .ml and .mli: the path without its extension. *)
let module_of path = Filename.remove_extension path

type entry = { file : string; name : string; reason : string; line : int }

let parse_allowlist path =
  if not (Sys.file_exists path) then []
  else
    read_file path
    |> String.split_on_char '\n'
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter_map (fun (line, l) ->
           if l = "" || l.[0] = '#' then None
           else
             let words = String.split_on_char ' ' l |> List.filter (( <> ) "") in
             match words with
             | file :: name :: (_ :: _ as reason) ->
                 Some { file; name; reason = String.concat " " reason; line }
             | _ ->
                 Printf.eprintf "%s:%d: want \"<file under lib/> <value> <reason>\"\n"
                   path line;
                 exit 2)

let () =
  let root = ref "." and allow = ref "" and verbose = ref false in
  Arg.parse
    [ ("--root", Arg.Set_string root, "DIR repository root (default .)");
      ("--allow", Arg.Set_string allow, "FILE allowlist");
      ("-v", Arg.Set verbose, " print the count line on success too") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "exports.exe [--root DIR] [--allow FILE] [-v]";
  let lib = Filename.concat !root "lib" in
  let rel path =
    let k = String.length lib + 1 in
    String.sub path k (String.length path - k)
  in
  let files =
    List.concat_map (fun d -> walk (Filename.concat !root d) []) scanned_dirs
  in
  (* name -> the modules whose code mentions it *)
  let users = Hashtbl.create 4096 in
  List.iter
    (fun path ->
      let m = module_of path in
      List.iter
        (fun id ->
          let ms = Option.value ~default:[] (Hashtbl.find_opt users id) in
          if not (List.mem m ms) then Hashtbl.replace users id (m :: ms))
        (uses (read_file path)))
    files;
  let called path name =
    let m = module_of path in
    List.exists (( <> ) m) (Option.value ~default:[] (Hashtbl.find_opt users name))
  in
  let exports =
    walk lib []
    |> List.filter (fun p -> Filename.check_suffix p ".mli")
    |> List.sort compare
    |> List.concat_map (fun p ->
           List.map (fun v -> (p, v)) (vals_of_mli (read_file p)))
  in
  let allowed = parse_allowlist !allow in
  let is_allowed p v = List.exists (fun e -> e.file = rel p && e.name = v) allowed in
  let problems = ref 0 in
  let report fmt =
    incr problems;
    Printf.printf fmt
  in
  List.iter
    (fun (p, v) ->
      if (not (called p v)) && not (is_allowed p v) then
        report "lib/%s: val %s has no caller outside its module and test/\n" (rel p) v)
    exports;
  List.iter
    (fun e ->
      let p = Filename.concat lib e.file in
      if not (List.mem (p, e.name) exports) then
        report "%s:%d: %s %s: no such export\n" !allow e.line e.file e.name
      else if called p e.name then
        report "%s:%d: %s %s: now has a caller; drop the entry\n" !allow e.line
          e.file e.name)
    allowed;
  if !verbose || !problems > 0 then
    Printf.printf "exports: %d values in %d interfaces, %d allowlisted, %d problem(s)\n"
      (List.length exports)
      (List.length (List.sort_uniq compare (List.map fst exports)))
      (List.length allowed) !problems;
  exit (if !problems = 0 then 0 else 1)
