(* Every QCheck property in the suite runs through [to_alcotest].  Its
   random state comes from the run seed (QCHECK_SEED when that is set,
   else a fresh one, printed at start-up) or from a seed fixed in the
   source, and a failing property prints the seed it ran from, so a
   failure seen once in a log can be replayed. *)

let run_seed =
  lazy
    (let s =
       match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
       | Some s -> s
       | None ->
         Random.self_init ();
         Random.int 1_000_000_000
     in
     Printf.printf "qcheck random seed: %d\n%!" s;
     s)

let to_alcotest ?seed test =
  let seed, replay =
    match seed with
    | Some seed -> (seed, "fixed in the source")
    | None ->
      let s = Lazy.force run_seed in
      ([| s |], Printf.sprintf "replay with QCHECK_SEED=%d" s)
  in
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make seed) test
  in
  ( name,
    speed,
    fun () ->
      try run ()
      with e ->
        Printf.printf "%s: failed from random seed [|%s|] (%s)\n%!" name
          (String.concat "; " (Array.to_list (Array.map string_of_int seed)))
          replay;
        raise e )
