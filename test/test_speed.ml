(* Fast transient path: quiescent-device bypass and LTE stepping,
   behind the Engine.Opts record.

   The guarantees pinned here:
   - [`Off] is bit-identical across jobs {1,4} x cache {off,on} through
     the Sizing front end.
   - [`Reduce_bypass] stays within its calibrated tolerance band at
     every recorded output and its critical delays track [`Off], on the
     chain decks and on a sleep-gated adder.
   - the default transient step is derived from the fastest explicit RC
     time constant instead of the historical flat [t_stop / 2000]. *)

module T = Netlist.Transistor
module E = Spice.Engine
module SR = Mtcmos.Spice_ref

let tech = Fixtures.tech

(* vsrc - R - n0 - R - n1 - ... - n_{k-1}, a grounded cap on every
   internal node. *)
let ladder ?(segments = 12) ?(r = 1000.0) ?(c = 1e-13) () =
  let b = T.builder () in
  let src = T.node ~name:"src" b in
  T.add b
    (T.Vsrc
       { pos = src; neg = T.ground;
         wave = Phys.Pwl.create [ (0.0, 0.0); (10.0 *. r *. c, 1.0) ] });
  let nodes =
    Array.init segments (fun i -> T.node ~name:(Printf.sprintf "n%d" i) b)
  in
  Array.iteri
    (fun i n ->
      let prev = if i = 0 then src else nodes.(i - 1) in
      T.add b (T.Res { pos = prev; neg = n; r });
      T.add b (T.Cap { pos = n; neg = T.ground; c }))
    nodes;
  (T.freeze b, src, nodes)

let prep ?(opts = E.Opts.default) netlist fast =
  E.prepare ~opts:(E.Opts.with_fast fast opts) netlist

let test_default_dt_from_tau () =
  let t_stop = 6e-9 in
  (* fast deck: the stiffest node sees two 1 kOhm resistors and 1 fF,
     tau = C / (2 g) = 0.5 ps, well under t_stop/2000 = 3 ps *)
  let fast_netlist, _, _ = ladder ~r:1000.0 ~c:1e-15 () in
  let eng = prep fast_netlist `Off in
  Alcotest.(check (float 1e-16))
    "fast RC refines the step" (0.25e-12)
    (E.default_dt eng ~t_stop);
  (* slow deck: tau = 100 ns, the historical default stands *)
  let slow_netlist, _, _ = ladder ~r:1e6 ~c:1e-13 () in
  let eng = prep slow_netlist `Off in
  Alcotest.(check (float 1e-16))
    "slow RC keeps t_stop/2000" (t_stop /. 2000.0)
    (E.default_dt eng ~t_stop);
  (* degenerate: the floor at t_stop/50000 *)
  let tiny_netlist, _, _ = ladder ~r:1.0 ~c:1e-18 () in
  let eng = prep tiny_netlist `Off in
  Alcotest.(check (float 1e-20))
    "floor at t_stop/50000" (t_stop /. 50000.0)
    (E.default_dt eng ~t_stop)

(* [`Off] through the Sizing front end: bit-identical across worker
   counts and cache states (the cache key digests the fast mode, so an
   [`Off] entry can never serve a fast-mode query or vice versa). *)
let prop_off_jobs_cache_invariant =
  QCheck.Test.make ~count:4
    ~name:"speed: `Off sizing is jobs/cache-invariant (bit-identical)"
    QCheck.(int_bound 0xff)
    (fun bits ->
      let c = Fixtures.adder_circuit 2 in
      let vec =
        ( [ (2, bits land 3); (2, (bits lsr 2) land 3) ],
          [ (2, (bits lsr 4) land 3); (2, (bits lsr 6) land 3) ] )
      in
      let measure ~jobs ~cache =
        let ctx =
          Eval.Ctx.(
            default |> with_engine Eval.Spice_level |> with_jobs jobs)
        in
        let ctx =
          match cache with
          | None -> ctx
          | Some cache -> Eval.Ctx.with_cache cache ctx
        in
        Mtcmos.Sizing.delay_at ~ctx c ~vectors:[ vec ] ~wl:8.0
      in
      let base = measure ~jobs:1 ~cache:None in
      let shared = Eval.Cache.create () in
      let warm = measure ~jobs:1 ~cache:(Some shared) in
      let par = measure ~jobs:4 ~cache:None in
      let par_hit = measure ~jobs:4 ~cache:(Some shared) in
      (* structural compare, not (=): a vector whose outputs never
         switch yields delay 0 and a NaN degradation on every run *)
      compare base warm = 0 && compare base par = 0
      && compare base par_hit = 0)

(* [`Reduce_bypass] tolerance band, pinned at every recorded output of
   the expanded MOS netlists.  Calibration on the chain fixtures puts
   the worst node-voltage deviation well under the band; the delay
   check is relative with an absolute floor for near-zero delays. *)
let v_band = 0.06 (* volts, 5 % of the 1.2 V rail *)
let d_band_rel = 0.10
let d_band_abs = 20e-12

let prop_bypass_within_band =
  QCheck.Test.make ~count:6
    ~name:"speed: `Reduce_bypass within band at every recorded output"
    QCheck.(pair (int_range 2 5) bool)
    (fun (len, rising) ->
      let c = Fixtures.chain_circuit len in
      let before, after = if rising then Fixtures.bit_vec else
          (snd Fixtures.bit_vec, fst Fixtures.bit_vec)
      in
      let run fast =
        let config = { SR.default_config with SR.fast } in
        match SR.run_ints_r ~config c ~before ~after with
        | Ok r -> r
        | Error f ->
          QCheck.Test.fail_reportf "run (%s): %s"
            (if fast = `Off then "off" else "reduce-bypass")
            (Spice.Diag.failure_to_string f)
      in
      let off = run `Off and fb = run `Reduce_bypass in
      let t_stop = SR.default_config.SR.t_stop in
      Array.iter
        (fun net ->
          let w0 = SR.net_waveform off net in
          let w1 = SR.net_waveform fb net in
          Array.iter
            (fun (t, v0) ->
              let dv = Float.abs (Phys.Pwl.value_at w1 t -. v0) in
              if dv > v_band then
                QCheck.Test.fail_reportf
                  "net %d at t=%.3e: |dv| = %.4f > %.4f" net t dv v_band)
            (Phys.Pwl.sample w0 ~t0:0.0 ~t1:t_stop ~n:96))
        (Netlist.Circuit.outputs c);
      (match (SR.critical_delay off, SR.critical_delay fb) with
       | Some (_, d0), Some (_, d1) ->
         if Float.abs (d1 -. d0) > Float.max d_band_abs (d_band_rel *. d0)
         then
           QCheck.Test.fail_reportf "critical delay drifted: %.3e vs %.3e"
             d1 d0
       | None, None -> ()
       | Some (_, d0), None ->
         QCheck.Test.fail_reportf "fast path lost the transition (off %.3e)"
           d0
       | None, Some (_, d1) ->
         QCheck.Test.fail_reportf "fast path invented a transition (%.3e)"
           d1);
      true)

(* [`Reduce_bypass] on the sleep-gated adder4 (W/L 12, all-low to
   a = 15, b = 1): every output within 120 mV (10 % of the 1.2 V rail)
   of [`Off] inside a +-25 ps time tube, since a coarser LTE step
   placement shifts a full-rail edge by a few ps, which a purely
   vertical band would misread as a volt-scale error; and the critical
   delay within max(10 %, 20 ps). *)
let test_bypass_sleep_adder () =
  let c = Fixtures.adder_circuit 4 in
  let run fast =
    let config =
      { SR.default_config with
        SR.sleep =
          Mtcmos.Breakpoint_sim.Sleep_fet
            (Device.Sleep.nmos_footer tech ~wl:12.0);
        fast }
    in
    SR.run_ints ~config c ~before:[ (4, 0); (4, 0) ]
      ~after:[ (4, 15); (4, 1) ]
  in
  let off = run `Off and fb = run `Reduce_bypass in
  let t_tube = 25e-12 in
  Array.iter
    (fun net ->
      let w0 = SR.net_waveform off net and w1 = SR.net_waveform fb net in
      Array.iter
        (fun (t, v0) ->
          let dv = ref infinity in
          for k = -4 to 4 do
            let t' = t +. (float_of_int k /. 4.0 *. t_tube) in
            dv := Float.min !dv (Float.abs (Phys.Pwl.value_at w1 t' -. v0))
          done;
          if !dv > 0.12 then
            Alcotest.failf "net %d at t=%.3e: |dv| = %.4f V > 0.12 V" net t
              !dv)
        (Phys.Pwl.sample w0 ~t0:0.0 ~t1:SR.default_config.SR.t_stop ~n:128))
    (Netlist.Circuit.outputs c);
  match (SR.critical_delay off, SR.critical_delay fb) with
  | Some (_, d0), Some (_, d1) ->
    if Float.abs (d1 -. d0) > Float.max 20e-12 (0.10 *. d0) then
      Alcotest.failf "critical delay drifted: %.3e vs %.3e" d1 d0
  | Some _, None | None, Some _ | None, None ->
    Alcotest.fail "both runs must switch an output"

let seeded test = Prop.to_alcotest ~seed:[| 0x5eed; 0xfa57 |] test

let suite =
  [ Alcotest.test_case "default dt derives from fastest RC tau" `Quick
      test_default_dt_from_tau;
    seeded prop_off_jobs_cache_invariant;
    seeded prop_bypass_within_band;
    Alcotest.test_case "bypass tracks `Off on the sleep-gated adder4" `Quick
      test_bypass_sleep_adder ]
