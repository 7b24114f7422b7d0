(* Widget.mentioned is named here only in a comment *)
let f ~mentioned:m = m
let () = print_int (Widget.used (f ~mentioned:2)); print_string "Widget.mentioned"
