(* Client side of the serve protocol: one submit per connection, used
   by [mtsize submit], the serve tests, and the CI smoke script.  Each
   event line is decoded with Obs.Json; the manifest's bytes follow its
   event raw. *)

type outcome =
  | Manifest of { manifest : string; failed : bool }
  | Rejected of string
  | Deadline
  | Remote_error of string

let connect = function
  | Daemon.Unix_socket path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  | Daemon.Tcp port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    fd

let send_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      let w = Unix.write fd b off (n - off) in
      go (off + w)
  in
  go 0

let read_line fd =
  let b = Buffer.create 256 in
  let one = Bytes.create 1 in
  let rec go () =
    match Unix.read fd one 0 1 with
    | 0 -> if Buffer.length b = 0 then None else Some (Buffer.contents b)
    | _ ->
      (match Bytes.get one 0 with
       | '\n' -> Some (Buffer.contents b)
       | c ->
         Buffer.add_char b c;
         go ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let read_exact fd n =
  let b = Bytes.create n in
  let rec go off =
    if off >= n then Some (Bytes.to_string b)
    else
      match Unix.read fd b off (n - off) with
      | 0 -> None
      | r -> go (off + r)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let submit ?(on_event = fun (_ : string) -> ()) endpoint ~rid
    ?deadline_s ~spec () =
  match connect endpoint with
  | exception Unix.Unix_error (e, _, _) ->
    Error ("connect: " ^ Unix.error_message e)
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with _ -> ())
      (fun () ->
        let header =
          Printf.sprintf "(submit (id %s) (spec-bytes %d)%s)\n" rid
            (String.length spec)
            (match deadline_s with
             | None -> ""
             | Some s -> Printf.sprintf " (deadline-s %g)" s)
        in
        match send_all fd (header ^ spec) with
        | exception Unix.Unix_error (e, _, _) ->
          Error ("send: " ^ Unix.error_message e)
        | () ->
          let rec events () =
            match read_line fd with
            | None -> Error "connection closed before a terminal event"
            | Some line ->
              on_event line;
              let ev =
                try Obs.Json.parse line
                with Obs.Json.Parse _ -> Obs.Json.J_null
              in
              let str k ~default =
                Option.value ~default (Obs.Json.str_field k ev)
              in
              let int k = Option.map int_of_float (Obs.Json.num_field k ev) in
              (match Obs.Json.str_field "event" ev with
               | Some "manifest" ->
                 (match int "bytes" with
                  | None -> Error "manifest event without a byte count"
                  | Some n ->
                    (match read_exact fd n with
                     | Some m ->
                       Ok
                         (Manifest
                            { manifest = m;
                              failed =
                                (match int "failed" with
                                 | Some k -> k > 0
                                 | None -> false) })
                     | None -> Error "manifest payload truncated"))
               | Some "rejected" ->
                 Ok (Rejected (str "reason" ~default:"rejected"))
               | Some "deadline" -> Ok Deadline
               | Some "error" ->
                 Ok (Remote_error (str "message" ~default:"error"))
               | _ -> events () (* accepted / fragment: keep streaming *))
          in
          events ())
