let () =
  Alcotest.run "mtcmos-sizing"
    [ ("phys", Test_phys.suite);
      ("la", Test_la.suite);
      ("device", Test_device.suite);
      ("netlist", Test_netlist.suite);
      ("logic-sim", Test_logic_sim.suite);
      ("spice", Test_spice.suite);
      ("core", Test_core.suite);
      ("extensions", Test_extensions.suite);
      ("analysis", Test_analysis.suite);
      ("properties", Test_properties.suite);
      ("eval", Test_eval.suite);
      ("par", Test_par.suite);
      ("obs", Test_obs.suite);
      ("runner", Test_runner.suite);
      ("serve", Test_serve.suite);
      ("differential", Test_differential.suite);
      ("selective", Test_selective.suite);
      ("scale", Test_scale.suite);
      ("speed", Test_speed.suite);
      ("integration", Test_integration.suite);
      ("pin", Test_pin.suite) ]
