(* Dense and sparse linear algebra tests. *)

let check_vec msg expected actual =
  Array.iteri
    (fun i e ->
      Alcotest.(check (float 1e-7))
        (Printf.sprintf "%s[%d]" msg i)
        e actual.(i))
    expected

let test_dense_basic () =
  let a = Dense.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Dense.solve a [| 3.0; 4.0 |] in
  check_vec "2x2 solve" [| 1.0; 1.0 |] x;
  let id = Dense.identity 4 in
  let b = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_vec "identity solve" b (Dense.solve id b);
  let y = Dense.mul_vec a [| 1.0; 1.0 |] in
  check_vec "mul_vec" [| 3.0; 4.0 |] y

let test_dense_pivoting () =
  (* leading zero forces a row swap *)
  let a = Dense.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Dense.solve a [| 5.0; 7.0 |] in
  check_vec "permutation solve" [| 7.0; 5.0 |] x

let test_dense_singular () =
  let a = Dense.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  (try
     ignore (Dense.solve a [| 1.0; 1.0 |]);
     Alcotest.fail "expected Singular"
   with Dense.Singular _ -> ())

let test_dense_stamp () =
  let a = Dense.create 2 2 in
  Dense.add_to a 0 0 1.0;
  Dense.add_to a 0 0 2.0;
  Alcotest.(check (float 1e-12)) "stamp accumulates" 3.0 (Dense.get a 0 0)

let test_sparse_pattern () =
  let p = La.Sparse.pattern_of_entries 3 [ (0, 1); (1, 0); (2, 1); (0, 1) ] in
  Alcotest.(check int) "size" 3 (La.Sparse.pattern_size p);
  (* 3 diagonals are always added; duplicates collapse *)
  Alcotest.(check int) "nnz" 6 (La.Sparse.nnz p);
  ignore (La.Sparse.slot p 0 1);
  ignore (La.Sparse.slot p 2 2);
  (try
     ignore (La.Sparse.slot p 2 0);
     Alcotest.fail "expected Not_found"
   with Not_found -> ())

let test_sparse_matrix_ops () =
  let p = La.Sparse.pattern_of_entries 2 [ (0, 1); (1, 0) ] in
  let m = La.Sparse.create_matrix p in
  La.Sparse.add_to m 0 0 2.0;
  La.Sparse.add_to m 0 1 1.0;
  La.Sparse.add_to m 1 0 1.0;
  La.Sparse.add_to m 1 1 3.0;
  Alcotest.(check (float 1e-12)) "get" 1.0 (La.Sparse.get m 0 1);
  Alcotest.(check (float 1e-12)) "get outside" 0.0 (La.Sparse.get m 1 1 -. 3.0);
  check_vec "sparse mul_vec" [| 3.0; 4.0 |]
    (La.Sparse.mul_vec m [| 1.0; 1.0 |]);
  La.Sparse.clear m;
  Alcotest.(check (float 1e-12)) "cleared" 0.0 (La.Sparse.get m 0 0)

let solve_sparse_dense_pair n entries values b =
  let p = La.Sparse.pattern_of_entries n entries in
  let m = La.Sparse.create_matrix p in
  let d = Dense.create n n in
  List.iter2
    (fun (i, j) v ->
      La.Sparse.add_to m i j v;
      Dense.add_to d i j v)
    entries values;
  (* diagonal dominance via the implicit diagonal slots *)
  for i = 0 to n - 1 do
    La.Sparse.add_to m i i 10.0;
    Dense.add_to d i i 10.0
  done;
  let sym = La.Sparse.analyze p in
  let num = La.Sparse.factor sym m in
  (La.Sparse.solve num b, Dense.solve d b)

let test_sparse_vs_dense () =
  let entries = [ (0, 1); (1, 2); (2, 0); (3, 1); (0, 3) ] in
  let values = [ 1.0; -2.0; 0.5; 3.0; -1.5 ] in
  let b = [| 1.0; 2.0; 3.0; 4.0 |] in
  let xs, xd = solve_sparse_dense_pair 4 entries values b in
  check_vec "sparse matches dense" xd xs

let test_sparse_fill () =
  (* arrow matrix: dense last row/col creates fill under natural order;
     min-degree should handle it and the solve must still be exact *)
  let n = 8 in
  let entries = ref [] in
  for i = 0 to n - 2 do
    entries := (i, n - 1) :: (n - 1, i) :: !entries
  done;
  let p = La.Sparse.pattern_of_entries n !entries in
  let m = La.Sparse.create_matrix p in
  for i = 0 to n - 1 do
    La.Sparse.add_to m i i 4.0
  done;
  for i = 0 to n - 2 do
    La.Sparse.add_to m i (n - 1) 1.0;
    La.Sparse.add_to m (n - 1) i 1.0
  done;
  let sym = La.Sparse.analyze p in
  Alcotest.(check bool) "fill bounded" true
    (La.Sparse.fill_nnz sym <= n * n);
  let num = La.Sparse.factor sym m in
  let x_true = Array.init n (fun i -> float_of_int (i + 1)) in
  let b = La.Sparse.mul_vec m x_true in
  check_vec "arrow solve" x_true (La.Sparse.solve num b)

let prop_sparse_solve_random =
  (* random sparse diagonally-dominant systems: solution must satisfy
     A x = b to high accuracy *)
  let gen =
    QCheck.Gen.(
      int_range 2 20 >>= fun n ->
      list_size (int_range 0 40)
        (triple (int_range 0 (n - 1)) (int_range 0 (n - 1))
           (float_range (-2.0) 2.0))
      >>= fun entries ->
      array_size (return n) (float_range (-5.0) 5.0) >>= fun b ->
      return (n, entries, b))
  in
  QCheck.Test.make ~count:150 ~name:"sparse: residual of random solves"
    (QCheck.make gen)
    (fun (n, entries, b) ->
      let pattern_entries = List.map (fun (i, j, _) -> (i, j)) entries in
      let p = La.Sparse.pattern_of_entries n pattern_entries in
      let m = La.Sparse.create_matrix p in
      List.iter (fun (i, j, v) -> La.Sparse.add_to m i j v) entries;
      for i = 0 to n - 1 do
        La.Sparse.add_to m i i 50.0
      done;
      let sym = La.Sparse.analyze p in
      let num = La.Sparse.factor sym m in
      let x = La.Sparse.solve num b in
      let r = La.Sparse.mul_vec m x in
      let ok = ref true in
      Array.iteri
        (fun i ri -> if Float.abs (ri -. b.(i)) > 1e-6 then ok := false)
        r;
      !ok)

let prop_dense_roundtrip =
  QCheck.Test.make ~count:150 ~name:"dense: solve (mul_vec a x) = x"
    QCheck.(
      pair (int_range 1 12) (float_range (-3.0) 3.0))
    (fun (n, scale) ->
      let a = Dense.create n n in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          Dense.set a i j (scale *. sin (float_of_int ((i * 7) + j)))
        done;
        Dense.add_to a i i (10.0 +. Float.abs scale)
      done;
      let x_true = Array.init n (fun i -> cos (float_of_int i)) in
      let b = Dense.mul_vec a x_true in
      let x = Dense.solve a b in
      Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-7) x_true x)

let suite =
  [ Alcotest.test_case "dense basic" `Quick test_dense_basic;
    Alcotest.test_case "dense pivoting" `Quick test_dense_pivoting;
    Alcotest.test_case "dense singular" `Quick test_dense_singular;
    Alcotest.test_case "dense stamp" `Quick test_dense_stamp;
    Alcotest.test_case "sparse pattern" `Quick test_sparse_pattern;
    Alcotest.test_case "sparse matrix ops" `Quick test_sparse_matrix_ops;
    Alcotest.test_case "sparse vs dense" `Quick test_sparse_vs_dense;
    Alcotest.test_case "sparse fill (arrow)" `Quick test_sparse_fill;
    Prop.to_alcotest prop_sparse_solve_random;
    Prop.to_alcotest prop_dense_roundtrip ]
