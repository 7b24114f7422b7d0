(* Export check: every [val] a lib/**/*.mli declares must have a caller
   outside its own module (its .ml and .mli) and outside test/, or an
   entry [<file under lib/> <value> <reason>] in the allowlist that says
   why it is kept.  Every optional argument [?x] of a value with such a
   caller must be passed by one of them, or have an entry
   [<file> <value>?x <reason>].  A value in a submodule is named by its
   path in the file ([Pool.map]).

   Callers are looked for in lib/, bin/, bench/, perfbench/ and
   examples/, with comments, string and character literals removed.
   A use of [val v] declared in lib/D/m.mli (or in its submodule [S])
   is one of:
   - a path [P.v] whose modules end in [M] (or [M.S]), after the
     file's aliases are expanded ([module X = Lib.M], [let module X =
     M in]).  A library name right before [M] must be M's library
     ([Mtcmos.Sizing.v], [Eval.Cache.v]), and a bare module name is
     pinned to the file's own library or to a library the file opens
     when one of them has it;
   - a bare [v] in a file that opens M ([open M], [let open M in],
     [M.( ... )], [include M]), unless [v] is being defined there
     (right after [let], [and], [rec], [val] or [external]) or is a
     record field ([r.v]);
   - either of the above through the module of a file that does
     [include M] (Runner includes Exec).
   An optional argument [?x] of [v] is passed by a use of [v] followed
   by a label [~x] or [?x] before the next [let], [in], [and], [val],
   [type], [module], [open] or [include].

   Both rules err towards passing: an open or an alias counts for the
   whole file, a label anywhere after a use and before the next binding
   counts as passed to it, a type path [M.t] counts as a use of a value [t],
   and a module name no path pins to a library matches that name in
   every library.  The optional arguments of a value with no caller are
   not checked: its allowlist entry keeps the whole value.

   Usage: exports.exe [--root DIR] [--allow FILE] [-v]
   Silent and exit 0 when every export passes.  Otherwise prints each
   unlisted uncalled export and unpassed optional argument, each
   allowlist entry that names neither or one that is now used, and a
   count line, and exits 1.  [-v] prints the count line on success
   too. *)

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

let is_upper name = name.[0] >= 'A' && name.[0] <= 'Z'

(* An identifier of the source and its offset; [label] is the sigil of
   an argument label ([~x], [?x]). *)
type tok = { at : int; name : string; label : char option }

(* The identifiers of OCaml source [s] in order, outside comments,
   string literals (plain and quoted) and character literals. *)
let tokens s =
  let n = String.length s in
  let toks = ref [] in
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
          let label =
            if i > 0 && (s.[i - 1] = '~' || s.[i - 1] = '?') then Some s.[i - 1]
            else None
          in
          toks := { at = i; name = String.sub s i (!j - i); label } :: !toks;
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
  Array.of_list (List.rev !toks)

let stop t = t.at + String.length t.name

(* The source text between tokens [a] and [b]. *)
let between src a b = String.sub src (stop a) (b.at - stop a)

(* A value an interface declares: its submodule path in the file
   ([["Pool"]] for [Par.Pool.map]), its name and the labels of its
   optional arguments. *)
type decl = { subs : string list; name : string; opts : string list }

(* Every [val] of an interface, at any depth of [module S : sig ...
   end]; a [val] inside a module type, an object or a functor's
   signature is no value of the file. *)
let decls src =
  let t = tokens src in
  let n = Array.length t in
  let out = ref [] and cur = ref None in
  let close () =
    Option.iter (fun d -> out := { d with opts = List.rev d.opts } :: !out) !cur;
    cur := None
  in
  let blank_before i = i > 0 && String.trim (between src t.(i - 1) t.(i)) = "" in
  let rec go i stack =
    if i < n then
      let tk = t.(i) in
      match (tk.label, tk.name) with
      | Some '?', x when stop tk < String.length src && src.[stop tk] = ':' ->
          cur := Option.map (fun d -> { d with opts = x :: d.opts }) !cur;
          go (i + 1) stack
      | Some _, _ -> go (i + 1) stack
      | None, ("sig" | "struct" | "object" | "begin") ->
          close ();
          let named =
            i >= 2 && t.(i - 2).name = "module" && is_upper t.(i - 1).name
            && String.trim (between src t.(i - 1) tk) = ":"
          in
          go (i + 1) ((if named then Some t.(i - 1).name else None) :: stack)
      | None, "end" ->
          close ();
          go (i + 1) (match stack with _ :: s -> s | [] -> [])
      | None, ("type" | "module" | "exception" | "external" | "include")
      | None, ("class" | "open") ->
          close ();
          go (i + 1) stack
      | None, "val" when i + 1 < n && blank_before (i + 1) ->
          close ();
          if List.for_all Option.is_some stack then
            cur :=
              Some
                { subs = List.rev_map Option.get stack;
                  name = t.(i + 1).name;
                  opts = [] };
          go (i + 2) stack
      | None, _ -> go (i + 1) stack
  in
  go 0 [];
  close ();
  List.rev !out

let definers = [ "let"; "and"; "rec"; "val"; "external" ]

(* What a file says about modules and values. *)
type event =
  | Use of string list * string * string list
      (* [M.N.v] and the labels after it, up to the next binding *)
  | Bare of string * string list
      (* [v], neither defined here nor a record field, and its labels *)
  | Open of string list  (* [open M], [let open M in], [M.( ... )] *)
  | Include of string list
  | Alias of string * string list  (* [module X = M.N] *)

(* Where the labels a use can pass stop: the next binding. *)
let boundaries = [ "let"; "in"; "and"; "val"; "type"; "module"; "open"; "include" ]

let events src =
  let t = tokens src in
  let n = Array.length t in
  let len = String.length src in
  let char_at k = if k < len then src.[k] else '\000' in
  let plain i = i < n && t.(i).label = None in
  let dotted i = plain (i + 1) && between src t.(i) t.(i + 1) = "." in
  (* the path that starts at token [i]: its modules, its value if it
     names one, and the token after it *)
  let path i =
    let rec go i acc =
      let acc = t.(i).name :: acc in
      if dotted i then
        if is_upper t.(i + 1).name then go (i + 1) acc
        else (List.rev acc, Some t.(i + 1).name, i + 2)
      else (List.rev acc, None, i + 1)
    in
    go i []
  in
  (* [labels.(i)]: the labels of the tokens after [i], up to the next
     boundary *)
  let labels = Array.make (n + 1) [] in
  for i = n - 1 downto 1 do
    let tk = t.(i) in
    labels.(i - 1) <-
      (match tk.label with
      | Some _ -> tk.name :: labels.(i)
      | None when List.mem tk.name boundaries -> []
      | None -> labels.(i))
  done;
  let out = ref [] in
  let emit e = out := e :: !out in
  let module_path_at i = plain i && is_upper t.(i).name in
  let rec go i =
    if i < n then
      let tk = t.(i) in
      if tk.label <> None then go (i + 1)
      else if tk.at > 0 && src.[tk.at - 1] = '.' then go (i + 1)
      else
        match tk.name with
        | ("open" | "include") when module_path_at (i + 1) ->
            let mods, _, j = path (i + 1) in
            emit (if tk.name = "open" then Open mods else Include mods);
            go j
        | "module"
          when module_path_at (i + 2)
               && is_upper t.(i + 1).name
               && String.trim (between src t.(i + 1) t.(i + 2)) = "=" ->
            let mods, v, j = path (i + 2) in
            let next = ref (stop t.(j - 1)) in
            while !next < len && (src.[!next] = ' ' || src.[!next] = '\n') do
              incr next
            done;
            (* [module X = F (M)] is a functor's result, not an alias *)
            if v = None && char_at !next <> '(' then
              emit (Alias (t.(i + 1).name, mods));
            go j
        | name when is_upper name -> (
            let mods, v, j = path i in
            match v with
            | Some v ->
                emit (Use (mods, v, labels.(j - 1)));
                go j
            | None ->
                let e = stop t.(j - 1) in
                if char_at e = '.' && String.contains "([{" (char_at (e + 1)) then
                  emit (Open mods);
                go j)
        | name ->
            let defined =
              i > 0 && plain (i - 1)
              && List.mem t.(i - 1).name definers
              && String.trim (between src t.(i - 1) tk) = ""
            in
            if not defined then emit (Bare (name, labels.(i)));
            go (i + 1)
  in
  go 0;
  List.rev !out

(* A module is its .ml and .mli: the path without its extension. *)
let module_of path = Filename.remove_extension path

let module_name path = String.capitalize_ascii (Filename.basename (module_of path))

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
                 Printf.eprintf
                   "%s:%d: want \"<file under lib/> <value>[?<argument>] <reason>\"\n"
                   path line;
                 exit 2)

(* The library a lib/ directory builds: the [(name ...)] of its dune
   file, or the directory's own name. *)
let library_name dir =
  let dune = Filename.concat dir "dune" in
  let base = Filename.basename dir in
  let words =
    if Sys.file_exists dune then
      String.split_on_char '(' (read_file dune)
      |> List.map (fun w -> String.split_on_char ')' w |> List.hd |> String.trim)
    else []
  in
  let name =
    List.find_map
      (fun w ->
        match String.split_on_char ' ' w |> List.filter (( <> ) "") with
        | [ "name"; n ] -> Some n
        | _ -> None)
      words
  in
  String.capitalize_ascii (Option.value ~default:base name)

(* What one scanned file uses, its module paths resolved. *)
type scan = {
  path : string;
  uses : (string, string list * string list) Hashtbl.t;
      (* value -> the module path and labels of each use *)
  bare : (string, string list) Hashtbl.t;
  opens : string list list;
  includes : string list list;
}

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
  (* each lib/ directory: its library and the modules it holds *)
  let libraries =
    (if Sys.file_exists lib then Sys.readdir lib else [||])
    |> Array.to_list
    |> List.sort compare
    |> List.map (Filename.concat lib)
    |> List.filter Sys.is_directory
    |> List.map (fun d ->
           let modules = List.map module_name (walk d []) in
           (d, library_name d, List.sort_uniq compare modules))
  in
  let library_names = List.map (fun (_, l, _) -> l) libraries in
  let library_of path =
    List.find_opt (fun (d, _, _) -> Filename.dirname path = d) libraries
  in
  (* [p] names the module at [mpath] of library [lname]: it ends in
     [mpath], and a library name right before that is [lname] *)
  let names p (lname, mpath) =
    let lp = List.length p and lm = List.length mpath in
    lp >= lm
    && List.filteri (fun i _ -> i >= lp - lm) p = mpath
    && (lp = lm
       ||
       let pre = List.nth p (lp - lm - 1) in
       pre = lname || not (List.mem pre library_names))
  in
  let scan path =
    let evs = events (read_file path) in
    let aliases =
      List.filter_map (function Alias (x, p) -> Some (x, p) | _ -> None) evs
    in
    let rec expand k = function
      | m :: rest when k > 0 -> (
          match List.assoc_opt m aliases with
          | Some p -> expand (k - 1) (p @ rest)
          | None -> m :: rest)
      | p -> p
    in
    let home = library_of path in
    let opened_libraries =
      List.filter_map
        (function
          | Open [ l ] -> List.find_opt (fun (_, l', _) -> l = l') libraries
          | _ -> None)
        evs
    in
    (* a bare module name is pinned to the file's own library, else to
       the one opened library that has it *)
    let resolve mods =
      match expand 8 mods with
      | m :: _ as p when not (List.mem m library_names) -> (
          let has (_, _, ms) = List.mem m ms in
          match home with
          | Some ((_, l, _) as h) when has h -> l :: p
          | _ -> (
              match List.filter has opened_libraries with
              | [ (_, l, _) ] -> l :: p
              | _ -> p))
      | p -> p
    in
    let s =
      { path; uses = Hashtbl.create 256; bare = Hashtbl.create 256; opens = [];
        includes = [] }
    in
    List.fold_left
      (fun s -> function
        | Use (mods, v, ls) ->
            Hashtbl.add s.uses v (resolve mods, ls);
            s
        | Bare (v, ls) ->
            Hashtbl.add s.bare v ls;
            s
        | Open mods -> { s with opens = resolve mods :: s.opens }
        | Include mods ->
            let p = resolve mods in
            { s with opens = p :: s.opens; includes = p :: s.includes }
        | Alias _ -> s)
      s evs
  in
  let scans =
    List.concat_map (fun d -> walk (Filename.concat !root d) []) scanned_dirs
    |> List.map scan
  in
  (* each export: its file, its library and every module path that
     reaches it (its own, and that of each file that includes it) *)
  let exports =
    walk lib []
    |> List.filter (fun p -> Filename.check_suffix p ".mli")
    |> List.sort compare
    |> List.concat_map (fun p ->
           let lname = match library_of p with Some (_, l, _) -> l | None -> "" in
           let home = (lname, [ module_name p ]) in
           let via =
             home
             :: List.filter_map
                  (fun s ->
                    match library_of s.path with
                    | Some (_, l, _)
                      when List.exists (fun i -> names i home) s.includes ->
                        Some (l, [ module_name s.path ])
                    | _ -> None)
                  scans
           in
           List.map
             (fun d ->
               let reach = List.map (fun (l, m) -> (l, m @ d.subs)) via in
               (p, String.concat "." (d.subs @ [ d.name ]), d, reach))
             (decls (read_file p)))
  in
  (* the labels of every use of an export outside its module *)
  let uses (p, _, (d : decl), reach) =
    List.concat_map
      (fun s ->
        if module_of s.path = module_of p then []
        else
          List.filter_map
            (fun (q, ls) -> if List.exists (names q) reach then Some ls else None)
            (Hashtbl.find_all s.uses d.name)
          @
          if List.exists (fun o -> List.exists (names o) reach) s.opens then
            Hashtbl.find_all s.bare d.name
          else [])
      scans
  in
  let checked =
    List.map
      (fun ((p, v, (d : decl), _) as e) ->
        let us = uses e in
        let passed x = List.exists (List.mem x) us in
        (p, v, us <> [], List.map (fun x -> (x, passed x)) d.opts))
      exports
  in
  let allowed = parse_allowlist !allow in
  let is_allowed p name =
    List.exists (fun e -> e.file = rel p && e.name = name) allowed
  in
  let problems = ref 0 in
  let report fmt =
    incr problems;
    Printf.printf fmt
  in
  List.iter
    (fun (p, v, called, opts) ->
      if not called then (
        if not (is_allowed p v) then
          report "lib/%s: val %s has no caller outside its module and test/\n"
            (rel p) v)
      else
        List.iter
          (fun (x, passed) ->
            if (not passed) && not (is_allowed p (v ^ "?" ^ x)) then
              report
                "lib/%s: val %s: no caller outside its module and test/ passes \
                 ?%s\n"
                (rel p) v x)
          opts)
    checked;
  List.iter
    (fun e ->
      let p = Filename.concat lib e.file in
      let v, arg =
        match String.split_on_char '?' e.name with
        | [ v; x ] -> (v, Some x)
        | _ -> (e.name, None)
      in
      match
        (List.find_opt (fun (p', v', _, _) -> p' = p && v' = v) checked, arg)
      with
      | Some (_, _, called, _), None ->
          if called then
            report "%s:%d: %s %s: now has a caller; drop the entry\n" !allow e.line
              e.file e.name
      | Some (_, _, called, opts), Some x when List.mem_assoc x opts ->
          if called && List.assoc x opts then
            report "%s:%d: %s %s: now passed by a caller; drop the entry\n" !allow
              e.line e.file e.name
          else if not called then
            report "%s:%d: %s %s: %s has no caller; drop the entry\n" !allow e.line
              e.file e.name v
      | _ -> report "%s:%d: %s %s: no such export\n" !allow e.line e.file e.name)
    allowed;
  if !verbose || !problems > 0 then
    Printf.printf
      "exports: %d values and %d optional arguments in %d interfaces, %d allowlisted, %d \
       problem(s)\n"
      (List.length exports)
      (List.fold_left (fun a (_, _, _, o) -> a + List.length o) 0 checked)
      (List.length (List.sort_uniq compare (List.map (fun (p, _, _, _) -> p) exports)))
      (List.length allowed) !problems;
  exit (if !problems = 0 then 0 else 1)
