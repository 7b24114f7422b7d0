type polarity = Nmos | Pmos

type params = {
  polarity : polarity;
  vt0 : float;
  kp : float;
  gamma : float;
  phi : float;
  lambda : float;
  n_sub : float;
  i0 : float;
}

type bias = { vgs : float; vds : float; vbs : float }

type operating_point = {
  ids : float;
  gm : float;
  gds : float;
  gmb : float;
  vth : float;
}

(* kT/q at 300 K *)
let thermal_voltage = 0.02585

let threshold p ~vbs =
  (* clamp the junction from forward bias beyond phi to keep sqrt real *)
  let arg = Float.max 1e-6 (p.phi -. vbs) in
  p.vt0 +. (p.gamma *. (sqrt arg -. sqrt p.phi))

(* d vth / d vbs *)
let dvth_dvbs p ~vbs =
  let arg = Float.max 1e-6 (p.phi -. vbs) in
  -.p.gamma /. (2.0 *. sqrt arg)

(* Evaluate in the NMOS convention with vds >= 0. *)
let eval_forward p ~wl { vgs; vds; vbs } =
  let vth = threshold p ~vbs in
  let dvt = dvth_dvbs p ~vbs in
  let vov = vgs -. vth in
  let vt = thermal_voltage in
  if vov <= 0.0 then begin
    (* weak inversion: exponential in vov, saturating in vds *)
    let expo = exp (vov /. (p.n_sub *. vt)) in
    let sat = 1.0 -. exp (-.vds /. vt) in
    let ids = p.i0 *. wl *. expo *. sat in
    let gm = ids /. (p.n_sub *. vt) in
    let gds = p.i0 *. wl *. expo *. (exp (-.vds /. vt) /. vt) in
    let gmb = -.dvt *. gm in
    { ids; gm; gds; gmb; vth }
  end
  else begin
    let clm = 1.0 +. (p.lambda *. vds) in
    (* a leakage floor keeps both strong-inversion branches continuous
       with the weak-inversion branch at vov = 0 and with each other *)
    let leak = p.i0 *. wl *. (1.0 -. exp (-.vds /. vt)) in
    if vds < vov then begin
      (* triode *)
      let core = (vov *. vds) -. (0.5 *. vds *. vds) in
      let ids = (p.kp *. wl *. core *. clm) +. leak in
      let gm = p.kp *. wl *. vds *. clm in
      let gds =
        (p.kp *. wl *. (vov -. vds) *. clm) +. (p.kp *. wl *. core *. p.lambda)
      in
      let gmb = -.dvt *. gm in
      { ids; gm; gds; gmb; vth }
    end
    else begin
      (* saturation *)
      let ids = 0.5 *. p.kp *. wl *. vov *. vov *. clm in
      let gm = p.kp *. wl *. vov *. clm in
      let gds = 0.5 *. p.kp *. wl *. vov *. vov *. p.lambda in
      let gmb = -.dvt *. gm in
      { ids = ids +. leak; gm; gds; gmb; vth }
    end
  end

(* NMOS with possibly negative vds: exploit source/drain symmetry.  With
   terminals swapped, vgs' = vgs - vds, vds' = -vds, vbs' = vbs - vds and
   the current direction flips. *)
let eval_nmos p ~wl b =
  if b.vds >= 0.0 then eval_forward p ~wl b
  else
    let swapped =
      { vgs = b.vgs -. b.vds; vds = -.b.vds; vbs = b.vbs -. b.vds }
    in
    let op = eval_forward p ~wl swapped in
    (* chain rule back to the original variables:
       ids = -ids'(vgs - vds, -vds, vbs - vds) *)
    { ids = -.op.ids;
      gm = -.op.gm;
      gds = op.gm +. op.gds +. op.gmb;
      gmb = -.op.gmb;
      vth = op.vth }

let eval p ~wl b =
  match p.polarity with
  | Nmos -> eval_nmos p ~wl b
  | Pmos ->
    (* negate voltages into the NMOS view, negate current back *)
    let op =
      eval_nmos p ~wl { vgs = -.b.vgs; vds = -.b.vds; vbs = -.b.vbs }
    in
    { ids = -.op.ids; gm = op.gm; gds = op.gds; gmb = op.gmb;
      vth = -.op.vth }

let ids p ~wl b = (eval p ~wl b).ids

let saturation_current p ~wl ~vgs ~vbs =
  let vth = threshold p ~vbs in
  let vov = vgs -. vth in
  if vov <= 0.0 then 0.0 else 0.5 *. p.kp *. wl *. vov *. vov

let linear_resistance p ~wl ~vgs =
  let vov = vgs -. p.vt0 in
  if vov <= 0.0 then
    invalid_arg "Mosfet.linear_resistance: device is off";
  1.0 /. (p.kp *. wl *. vov)
