let name = "left"
and report () = "left"
