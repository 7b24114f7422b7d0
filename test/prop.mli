val to_alcotest : ?seed:int array -> QCheck2.Test.t -> unit Alcotest.test_case
(** [QCheck_alcotest.to_alcotest] with the random state built from
    [seed] when given, else from the run seed ([QCHECK_SEED] when set,
    else fresh); a failure prints that seed before it propagates. *)
