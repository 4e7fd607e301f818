let () =
  Alcotest.run "ksa"
    (Test_prim.suites @ Test_shardset.suites @ Test_dgraph.suites @ Test_sim.suites @ Test_fd.suites @ Test_algo.suites @ Test_core.suites @ Test_model.suites @ Test_impl.suites @ Test_ho.suites @ Test_engine_props.suites @ Test_trace.suites @ Test_trace_io.suites @ Test_fuzz.suites @ Test_misc.suites @ Test_sm.suites @ Test_smoke.suites @ Test_explore.suites @ Test_reduction.suites @ Test_checkpoint.suites @ Test_byzantine.suites @ Test_svc.suites @ Test_cli.suites)
