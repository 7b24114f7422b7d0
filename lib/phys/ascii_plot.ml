let render_grid ~width ~height ~plot_points ~y_label ~x_label =
  let grid = Array.init height (fun _ -> Bytes.make width ' ') in
  List.iter
    (fun (col, row, ch) ->
      if col >= 0 && col < width && row >= 0 && row < height then
        Bytes.set grid.(height - 1 - row) col ch)
    plot_points;
  let buf = Buffer.create (height * (width + 12)) in
  Array.iteri
    (fun i line ->
      let label =
        if i = 0 then y_label `Top
        else if i = height - 1 then y_label `Bottom
        else ""
      in
      Buffer.add_string buf (Printf.sprintf "%10s |%s\n" label
                               (Bytes.to_string line)))
    grid;
  Buffer.add_string buf
    (Printf.sprintf "%10s +%s\n" "" (String.make width '-'));
  Buffer.add_string buf (Printf.sprintf "%10s  %s\n" "" x_label);
  Buffer.contents buf

let waveforms ?t0 ?t1 waves =
  let width = 64 and height = 16 in
  if waves = [] then invalid_arg "Ascii_plot.waveforms: empty";
  let t_lo, t_hi =
    List.fold_left
      (fun (lo, hi) (_, w) ->
        let a, b = Pwl.duration w in
        (Float.min lo a, Float.max hi b))
      (infinity, neg_infinity) waves
  in
  let t0 = Option.value t0 ~default:t_lo in
  let t1 = Option.value t1 ~default:t_hi in
  let t1 = if t1 <= t0 then t0 +. 1e-12 else t1 in
  let v_lo, v_hi =
    List.fold_left
      (fun (lo, hi) (_, w) ->
        let a, b = Pwl.extrema w in
        (Float.min lo a, Float.max hi b))
      (infinity, neg_infinity) waves
  in
  let v_hi = if v_hi <= v_lo then v_lo +. 1.0 else v_hi in
  let pts =
    List.concat_map
      (fun (ch, w) ->
        List.init width (fun col ->
            let t =
              t0 +. ((t1 -. t0) *. float_of_int col /. float_of_int (width - 1))
            in
            let v = Pwl.value_at w t in
            let row =
              int_of_float
                (Float.round
                   ((v -. v_lo) /. (v_hi -. v_lo)
                    *. float_of_int (height - 1)))
            in
            (col, row, ch)))
      waves
  in
  let y_label = function
    | `Top -> Printf.sprintf "%.3g" v_hi
    | `Bottom -> Printf.sprintf "%.3g" v_lo
  in
  let x_label =
    Printf.sprintf "t: %s .. %s"
      (Units.to_eng_string ~unit:"s" t0)
      (Units.to_eng_string ~unit:"s" t1)
  in
  render_grid ~width ~height ~plot_points:pts ~y_label ~x_label
