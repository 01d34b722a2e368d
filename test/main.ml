(* Aggregate test runner: one alcotest binary over all suites. *)

let () =
  Alcotest.run "ccp"
    (Test_util.suite @ Test_eventsim.suite @ Test_net.suite @ Test_lang.suite
   @ Test_ipc.suite @ Test_datapath.suite @ Test_agent.suite @ Test_algorithms.suite
   @ Test_core.suite @ Test_extensions.suite @ Test_props.suite @ Test_faults.suite
   @ Test_guard.suite @ Test_compile.suite @ Test_integration.suite
   @ Test_obs.suite @ Test_fidelity.suite @ Test_trace.suite @ Test_robustness.suite
   @ Test_chaos.suite @ Test_scale.suite @ Test_incast.suite @ Test_telemetry.suite
   @ Test_schema.suite @ Test_reinstall.suite)
