let () =
  Alcotest.run "hbc"
    [
      ("sim", Test_sim.suite);
      ("event_queue", Test_event_queue.suite);
      ("ir", Test_ir.suite);
      ("compiler", Test_compiler.suite);
      ("linker", Test_linker.suite);
      ("heartbeat", Test_heartbeat.suite);
      ("runtime", Test_runtime.suite);
      ("faults", Test_faults.suite);
      ("trace", Test_trace.suite);
      ("baselines", Test_baselines.suite);
      ("workloads", Test_workloads.suite);
      ("semantics", Test_semantics.suite);
      ("io", Test_io.suite);
      ("fork_join", Test_fork_join.suite);
      ("parallel", Test_parallel.suite);
      ("sched", Test_sched.suite);
      ("report", Test_report.suite);
      ("experiments", Test_experiments.suite);
      ("resilience", Test_resilience.suite);
      ("benchgate", Test_benchgate.suite);
      ("sanitizer", Test_sanitizer.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("native_faults", Test_native_faults.suite);
      ("native_beats", Test_native_beats.suite);
      ("server", Test_server.suite);
      ("pin", Test_pin.suite);
    ]
