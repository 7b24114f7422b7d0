type t = { n : int; m : int; data : float array }

let create n m =
  if n <= 0 || m <= 0 then invalid_arg "Dense.create";
  { n; m; data = Array.make (n * m) 0.0 }

let get a i j = a.data.((i * a.m) + j)
let set a i j x = a.data.((i * a.m) + j) <- x
let add_to a i j x = a.data.((i * a.m) + j) <- a.data.((i * a.m) + j) +. x

let identity n =
  let a = create n n in
  for i = 0 to n - 1 do
    set a i i 1.0
  done;
  a

let of_arrays rows =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Dense.of_arrays: empty";
  let m = Array.length rows.(0) in
  let a = create n m in
  Array.iteri
    (fun i row ->
      if Array.length row <> m then invalid_arg "Dense.of_arrays: ragged";
      Array.iteri (fun j x -> set a i j x) row)
    rows;
  a

let mul_vec a x =
  if Array.length x <> a.m then invalid_arg "Dense.mul_vec";
  Array.init a.n (fun i ->
      let s = ref 0.0 in
      for j = 0 to a.m - 1 do
        s := !s +. (get a i j *. x.(j))
      done;
      !s)

exception Singular of int

let solve a0 b =
  let n = a0.n in
  if a0.m <> n then invalid_arg "Dense.solve: not square";
  if Array.length b <> n then invalid_arg "Dense.solve";
  let a = { a0 with data = Array.copy a0.data } in
  let perm = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    (* partial pivoting *)
    let pivot_row = ref k in
    let pivot_val = ref (Float.abs (get a k k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs (get a i k) in
      if v > !pivot_val then begin
        pivot_val := v;
        pivot_row := i
      end
    done;
    if !pivot_val = 0.0 || not (Float.is_finite !pivot_val) then
      raise (Singular k);
    if !pivot_row <> k then begin
      for j = 0 to n - 1 do
        let t = get a k j in
        set a k j (get a !pivot_row j);
        set a !pivot_row j t
      done;
      let t = perm.(k) in
      perm.(k) <- perm.(!pivot_row);
      perm.(!pivot_row) <- t
    end;
    let akk = get a k k in
    for i = k + 1 to n - 1 do
      let factor = get a i k /. akk in
      set a i k factor;
      if factor <> 0.0 then
        for j = k + 1 to n - 1 do
          add_to a i j (-.factor *. get a k j)
        done
    done
  done;
  let x = Array.init n (fun i -> b.(perm.(i))) in
  (* forward substitution, unit lower triangle *)
  for i = 1 to n - 1 do
    for j = 0 to i - 1 do
      x.(i) <- x.(i) -. (get a i j *. x.(j))
    done
  done;
  (* back substitution *)
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      x.(i) <- x.(i) -. (get a i j *. x.(j))
    done;
    x.(i) <- x.(i) /. get a i i
  done;
  x
