(* Minimal S-expression reader for the batch job-file language.  Atoms
   are bare words or double-quoted strings (backslash escapes for the
   quote, backslash, newline and tab); semicolon comments run to end of
   line.  Line numbers are tracked for error messages only — the parsed
   tree carries none, so two spellings of the same file fingerprint
   identically (see Spec.fingerprint). *)

type t =
  | Atom of string
  | List of t list

type state = {
  src : string;
  file : string option;
  mutable pos : int;
  mutable line : int;
}

(* compiler-style positions: "file:3: msg" when the source has a name,
   "line 3: msg" for anonymous strings *)
let error st msg =
  match st.file with
  | Some f -> Error (Printf.sprintf "%s:%d: %s" f st.line msg)
  | None -> Error (Printf.sprintf "line %d: %s" st.line msg)

let peek st = if st.pos >= String.length st.src then None else Some st.src.[st.pos]

let advance st =
  (match peek st with Some '\n' -> st.line <- st.line + 1 | _ -> ());
  st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance st;
    skip_ws st
  | Some ';' ->
    let rec to_eol () =
      match peek st with
      | Some '\n' | None -> ()
      | Some _ ->
        advance st;
        to_eol ()
    in
    to_eol ();
    skip_ws st
  | _ -> ()

let is_atom_char = function
  | ' ' | '\t' | '\r' | '\n' | '(' | ')' | '"' | ';' -> false
  | _ -> true

let read_quoted st =
  advance st (* opening quote *);
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' ->
      advance st;
      Ok (Buffer.contents b)
    | Some '\\' ->
      advance st;
      (match peek st with
       | Some 'n' -> Buffer.add_char b '\n'; advance st; go ()
       | Some 't' -> Buffer.add_char b '\t'; advance st; go ()
       | Some ('"' | '\\') ->
         Buffer.add_char b (Option.get (peek st));
         advance st;
         go ()
       | Some c -> error st (Printf.sprintf "bad escape \\%c" c)
       | None -> error st "unterminated string")
    | Some c ->
      Buffer.add_char b c;
      advance st;
      go ()
  in
  go ()

let read_atom st =
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | Some c when is_atom_char c ->
      Buffer.add_char b c;
      advance st;
      go ()
    | _ -> Buffer.contents b
  in
  Ok (go ())

let rec read_form st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some ')' -> error st "unexpected )"
  | Some '(' ->
    advance st;
    let rec items acc =
      skip_ws st;
      match peek st with
      | Some ')' ->
        advance st;
        Ok (List (List.rev acc))
      | None -> error st "unclosed ("
      | Some _ ->
        (match read_form st with
         | Ok f -> items (f :: acc)
         | Error _ as e -> e)
    in
    items []
  | Some '"' ->
    (match read_quoted st with
     | Ok s -> Ok (Atom s)
     | Error _ as e -> e)
  | Some _ ->
    (match read_atom st with
     | Ok "" -> error st "empty atom"
     | Ok s -> Ok (Atom s)
     | Error _ as e -> e)

let parse ?file src =
  let st = { src; file; pos = 0; line = 1 } in
  let rec forms acc =
    skip_ws st;
    match peek st with
    | None -> Ok (List.rev acc)
    | Some _ ->
      (match read_form st with
       | Ok f -> forms (f :: acc)
       | Error _ as e -> e)
  in
  forms []

let parse_string src = parse src

let parse_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | src -> parse ~file:path src
  | exception Sys_error m -> Error m

(* canonical rendering: single spaces, quoted only when necessary *)
let rec to_string = function
  | Atom s ->
    let needs_quote =
      s = "" || String.exists (fun c -> not (is_atom_char c)) s
    in
    if not needs_quote then s
    else begin
      let b = Buffer.create (String.length s + 2) in
      Buffer.add_char b '"';
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | '\n' -> Buffer.add_string b "\\n"
          | '\t' -> Buffer.add_string b "\\t"
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"';
      Buffer.contents b
    end
  | List l -> "(" ^ String.concat " " (List.map to_string l) ^ ")"
