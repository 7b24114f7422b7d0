exception No_bracket

let max_iter = 200

let bisect f ~lo ~hi =
  let tol = 1e-12 in
  let flo = f lo and fhi = f hi in
  if flo = 0.0 then lo
  else if fhi = 0.0 then hi
  else if flo *. fhi > 0.0 then raise No_bracket
  else
    let rec loop lo hi flo iter =
      let mid = 0.5 *. (lo +. hi) in
      if hi -. lo <= tol || iter >= max_iter then mid
      else
        let fmid = f mid in
        if fmid = 0.0 then mid
        else if flo *. fmid < 0.0 then loop lo mid flo (iter + 1)
        else loop mid hi fmid (iter + 1)
    in
    loop lo hi flo 0

(* Classic Brent root bracketing: inverse quadratic interpolation with
   secant and bisection fallbacks. *)
let brent ?(tol = 1e-14) f ~lo ~hi =
  let a = ref lo and b = ref hi in
  let fa = ref (f lo) and fb = ref (f hi) in
  if !fa = 0.0 then lo
  else if !fb = 0.0 then hi
  else if !fa *. !fb > 0.0 then raise No_bracket
  else begin
    if Float.abs !fa < Float.abs !fb then begin
      let t = !a in a := !b; b := t;
      let t = !fa in fa := !fb; fb := t
    end;
    let c = ref !a and fc = ref !fa in
    let d = ref (!b -. !a) in
    let mflag = ref true in
    let iter = ref 0 in
    let continue = ref true in
    while !continue && !iter < max_iter do
      incr iter;
      let s =
        if !fa <> !fc && !fb <> !fc then
          (* inverse quadratic interpolation *)
          (!a *. !fb *. !fc /. ((!fa -. !fb) *. (!fa -. !fc)))
          +. (!b *. !fa *. !fc /. ((!fb -. !fa) *. (!fb -. !fc)))
          +. (!c *. !fa *. !fb /. ((!fc -. !fa) *. (!fc -. !fb)))
        else !b -. (!fb *. (!b -. !a) /. (!fb -. !fa))
      in
      let lo_guard = ((3.0 *. !a) +. !b) /. 4.0 in
      let out_of_range =
        if !b > lo_guard then s < lo_guard || s > !b
        else s > lo_guard || s < !b
      in
      let s =
        if
          out_of_range
          || (!mflag && Float.abs (s -. !b) >= Float.abs (!b -. !c) /. 2.0)
          || ((not !mflag) && Float.abs (s -. !b) >= Float.abs !d /. 2.0)
          || (!mflag && Float.abs (!b -. !c) < tol)
          || ((not !mflag) && Float.abs !d < tol)
        then begin
          mflag := true;
          0.5 *. (!a +. !b)
        end
        else begin
          mflag := false;
          s
        end
      in
      let fs = f s in
      d := !b -. !c;
      c := !b;
      fc := !fb;
      if !fa *. fs < 0.0 then begin b := s; fb := fs end
      else begin a := s; fa := fs end;
      if Float.abs !fa < Float.abs !fb then begin
        let t = !a in a := !b; b := t;
        let t = !fa in fa := !fb; fb := t
      end;
      if !fb = 0.0 || Float.abs (!b -. !a) <= tol then continue := false
    done;
    !b
  end
