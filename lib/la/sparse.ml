(* CSR with a hash-based slot lookup.  The LU is Gilbert–Peierls style but
   with the fill pattern computed once symbolically (the pattern never
   changes between factorisations of the same circuit). *)

type pattern = {
  n : int;
  row_ptr : int array; (* length n+1 *)
  col_idx : int array; (* length nnz, sorted within each row *)
  slots : (int * int, int) Hashtbl.t;
}

let pattern_of_entries n entries =
  if n <= 0 then invalid_arg "Sparse.pattern_of_entries: n <= 0";
  let rows = Array.make n [] in
  let seen = Hashtbl.create (List.length entries * 2) in
  let add i j =
    if i < 0 || i >= n || j < 0 || j >= n then
      invalid_arg "Sparse.pattern_of_entries: index out of range";
    if not (Hashtbl.mem seen (i, j)) then begin
      Hashtbl.add seen (i, j) ();
      rows.(i) <- j :: rows.(i)
    end
  in
  List.iter (fun (i, j) -> add i j) entries;
  for i = 0 to n - 1 do
    add i i
  done;
  let row_ptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    rows.(i) <- List.sort_uniq compare rows.(i);
    row_ptr.(i + 1) <- row_ptr.(i) + List.length rows.(i)
  done;
  let nnz = row_ptr.(n) in
  let col_idx = Array.make nnz 0 in
  let slots = Hashtbl.create (nnz * 2) in
  for i = 0 to n - 1 do
    List.iteri
      (fun k j ->
        let s = row_ptr.(i) + k in
        col_idx.(s) <- j;
        Hashtbl.replace slots (i, j) s)
      rows.(i)
  done;
  { n; row_ptr; col_idx; slots }

let pattern_size p = p.n
let nnz p = p.row_ptr.(p.n)

let slot p i j =
  match Hashtbl.find_opt p.slots (i, j) with
  | Some s -> s
  | None -> raise Not_found

type matrix = { pattern : pattern; values : float array }

let create_matrix pattern =
  { pattern; values = Array.make (nnz pattern) 0.0 }

let clear m = Array.fill m.values 0 (Array.length m.values) 0.0

let add_to m i j x =
  let s = slot m.pattern i j in
  m.values.(s) <- m.values.(s) +. x

let get m i j =
  match Hashtbl.find_opt m.pattern.slots (i, j) with
  | Some s -> m.values.(s)
  | None -> 0.0

let mul_vec m x =
  let p = m.pattern in
  if Array.length x <> p.n then invalid_arg "Sparse.mul_vec";
  Array.init p.n (fun i ->
      let s = ref 0.0 in
      for k = p.row_ptr.(i) to p.row_ptr.(i + 1) - 1 do
        s := !s +. (m.values.(k) *. x.(p.col_idx.(k)))
      done;
      !s)

(* ---- ordering ---------------------------------------------------------- *)

(* Minimum-degree ordering on the symmetrised adjacency graph.  Quotient
   graphs are overkill here; an explicit clique update is fine for the
   circuit sizes we target (a few thousand nodes). *)
let min_degree_order p =
  let n = p.n in
  let adj = Array.make n [] in
  let add_edge i j =
    if i <> j then begin
      adj.(i) <- j :: adj.(i);
      adj.(j) <- i :: adj.(j)
    end
  in
  for i = 0 to n - 1 do
    for k = p.row_ptr.(i) to p.row_ptr.(i + 1) - 1 do
      let j = p.col_idx.(k) in
      if j > i then add_edge i j
    done
  done;
  let neighbors = Array.map (fun l -> List.sort_uniq compare l) adj in
  let sets =
    Array.map
      (fun l ->
        let h = Hashtbl.create (List.length l * 2 + 1) in
        List.iter (fun j -> Hashtbl.replace h j ()) l;
        h)
      neighbors
  in
  let eliminated = Array.make n false in
  let order = Array.make n 0 in
  let degree i = Hashtbl.length sets.(i) in
  for step = 0 to n - 1 do
    (* pick min-degree uneliminated node *)
    let best = ref (-1) and best_deg = ref max_int in
    for i = 0 to n - 1 do
      if (not eliminated.(i)) && degree i < !best_deg then begin
        best := i;
        best_deg := degree i
      end
    done;
    let v = !best in
    order.(step) <- v;
    eliminated.(v) <- true;
    let nbrs =
      Hashtbl.fold
        (fun j () acc -> if eliminated.(j) then acc else j :: acc)
        sets.(v) []
    in
    (* clique the neighbours, remove v *)
    List.iter
      (fun a ->
        Hashtbl.remove sets.(a) v;
        List.iter
          (fun b -> if a <> b then Hashtbl.replace sets.(a) b ())
          nbrs)
      nbrs
  done;
  order

(* ---- symbolic factorisation ------------------------------------------- *)

type symbolic = {
  sp : pattern;
  perm : int array;     (* perm.(new) = old *)
  inv_perm : int array; (* inv_perm.(old) = new *)
  (* For each permuted row i: sorted column indices of L(i, <i) and
     U(i, >=i), as one array split at [diag_pos]. *)
  row_cols : int array array;
  diag_pos : int array;
}

let analyze p =
  let n = p.n in
  let perm = min_degree_order p in
  let inv_perm = Array.make n 0 in
  Array.iteri (fun new_i old_i -> inv_perm.(old_i) <- new_i) perm;
  (* permuted pattern rows *)
  let base_rows =
    Array.init n (fun i ->
        let old_i = perm.(i) in
        let cols = ref [] in
        for k = p.row_ptr.(old_i) to p.row_ptr.(old_i + 1) - 1 do
          cols := inv_perm.(p.col_idx.(k)) :: !cols
        done;
        List.sort_uniq compare (i :: !cols))
  in
  (* Row-merge symbolic LU: pattern(i) grows by the U-pattern of every
     pivot row j < i present in pattern(i), processed in ascending order. *)
  let u_pattern = Array.make n [||] in
  let row_cols = Array.make n [||] in
  let diag_pos = Array.make n 0 in
  for i = 0 to n - 1 do
    (* work set as a sorted discovery: use a boolean mark + min-heap-ish
       scan.  Rows are short, so a sorted list with insertion is fine. *)
    let module IS = Set.Make (Int) in
    let work = ref (IS.of_list base_rows.(i)) in
    let processed = ref IS.empty in
    let continue = ref true in
    while !continue do
      match IS.min_elt_opt (IS.diff (IS.filter (fun j -> j < i) !work) !processed) with
      | None -> continue := false
      | Some j ->
        processed := IS.add j !processed;
        Array.iter
          (fun k -> if k > j then work := IS.add k !work)
          u_pattern.(j)
    done;
    let cols = Array.of_list (IS.elements !work) in
    row_cols.(i) <- cols;
    (* locate diagonal *)
    let d = ref 0 in
    Array.iteri (fun k c -> if c = i then d := k) cols;
    diag_pos.(i) <- !d;
    u_pattern.(i) <- Array.sub cols !d (Array.length cols - !d)
  done;
  { sp = p; perm; inv_perm; row_cols; diag_pos }

let fill_nnz s =
  Array.fold_left (fun acc r -> acc + Array.length r) 0 s.row_cols

(* ---- numeric factorisation -------------------------------------------- *)

type numeric = {
  sym : symbolic;
  (* values aligned with sym.row_cols; L has implicit unit diagonal stored
     as the multipliers in the sub-diagonal positions. *)
  vals : float array array;
}

exception Singular of int

let factor sym m =
  if m.pattern != sym.sp && m.pattern.n <> sym.sp.n then
    invalid_arg "Sparse.factor: pattern mismatch";
  let n = sym.sp.n in
  let work = Array.make n 0.0 in
  let vals = Array.map (fun cols -> Array.make (Array.length cols) 0.0)
      sym.row_cols in
  let p = m.pattern in
  for i = 0 to n - 1 do
    let cols = sym.row_cols.(i) in
    (* scatter permuted row i of A *)
    Array.iter (fun c -> work.(c) <- 0.0) cols;
    let old_i = sym.perm.(i) in
    for k = p.row_ptr.(old_i) to p.row_ptr.(old_i + 1) - 1 do
      work.(sym.inv_perm.(p.col_idx.(k))) <- m.values.(k)
    done;
    (* eliminate using previous pivot rows, ascending column order *)
    let d = sym.diag_pos.(i) in
    for kk = 0 to d - 1 do
      let j = cols.(kk) in
      let ujj = vals.(j).(sym.diag_pos.(j)) in
      let lij = work.(j) /. ujj in
      work.(j) <- lij;
      if lij <> 0.0 then begin
        let jcols = sym.row_cols.(j) in
        for t = sym.diag_pos.(j) + 1 to Array.length jcols - 1 do
          let c = jcols.(t) in
          work.(c) <- work.(c) -. (lij *. vals.(j).(t))
        done
      end
    done;
    (* pivot check *)
    let piv = work.(i) in
    if not (Float.is_finite piv) then raise (Singular i);
    if piv = 0.0 then work.(i) <- 1e-300;
    (* gather *)
    Array.iteri (fun k c -> vals.(i).(k) <- work.(c)) cols
  done;
  { sym; vals }

let solve num b =
  let sym = num.sym in
  let n = sym.sp.n in
  if Array.length b <> n then invalid_arg "Sparse.solve";
  let x = Array.init n (fun i -> b.(sym.perm.(i))) in
  (* forward: L (unit diagonal) *)
  for i = 0 to n - 1 do
    let cols = sym.row_cols.(i) in
    let d = sym.diag_pos.(i) in
    let acc = ref x.(i) in
    for k = 0 to d - 1 do
      acc := !acc -. (num.vals.(i).(k) *. x.(cols.(k)))
    done;
    x.(i) <- !acc
  done;
  (* backward: U *)
  for i = n - 1 downto 0 do
    let cols = sym.row_cols.(i) in
    let d = sym.diag_pos.(i) in
    let acc = ref x.(i) in
    for k = d + 1 to Array.length cols - 1 do
      acc := !acc -. (num.vals.(i).(k) *. x.(cols.(k)))
    done;
    x.(i) <- !acc /. num.vals.(i).(d)
  done;
  (* un-permute *)
  let out = Array.make n 0.0 in
  for i = 0 to n - 1 do
    out.(sym.perm.(i)) <- x.(i)
  done;
  out
