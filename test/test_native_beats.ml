(* Heartbeats on the domains backend: the monitor domain is the beat
   source (the paper's ping thread), and each worker's padded record
   counts what it saw. Generated and missed beats are written by the
   monitor, detected beats and polls by the owning worker; a beat still
   pending when the run ends is the only one in neither count, so per
   run  detected + missed <= generated <= detected + missed + P. *)

let check_bool = Alcotest.(check bool)

let spmv () =
  let (Ir.Program.Any p) = (Workloads.Registry.find "spmv-powerlaw").Workloads.Registry.make 0.2 in
  Ir.Program.Any p

let cfg workers = { Hbc_core.Rt_config.default with workers }

let beat_counters_balance () =
  let (Ir.Program.Any p) = spmv () in
  let seq = Baselines.Serial_exec.run_program p in
  List.iter
    (fun workers ->
      let r =
        Hb_parallel.Native_run.run ~beat:(Hb_parallel.Native_run.Wall_us 100.0) (cfg workers) p
      in
      let m = r.Sim.Run_result.metrics in
      let g = m.Sim.Metrics.heartbeats_generated
      and d = m.Sim.Metrics.heartbeats_detected
      and x = m.Sim.Metrics.heartbeats_missed in
      let what = Printf.sprintf "P=%d (generated %d, detected %d, missed %d)" workers g d x in
      check_bool ("result correct at " ^ what) true (Sim.Run_result.fingerprints_close seq r);
      check_bool ("beats detected at " ^ what) true (d > 0);
      check_bool ("polls counted at " ^ what) true (m.Sim.Metrics.polls > 0);
      check_bool ("no beat counted twice at " ^ what) true (d + x <= g);
      check_bool ("at most one pending beat per worker at " ^ what) true (g <= d + x + workers))
    [ 1; 2 ]

(* The deterministic beat has no monitor: every beat is generated where it
   is detected, once per [n] leaf polls. *)
let every_polls_counters () =
  let (Ir.Program.Any p) = spmv () in
  let r = Hb_parallel.Native_run.run ~beat:(Hb_parallel.Native_run.Every_polls 64) (cfg 1) p in
  let m = r.Sim.Run_result.metrics in
  Alcotest.(check int) "one beat per 64 polls" (m.Sim.Metrics.polls / 64)
    m.Sim.Metrics.heartbeats_detected;
  Alcotest.(check int) "generated = detected" m.Sim.Metrics.heartbeats_detected
    m.Sim.Metrics.heartbeats_generated;
  Alcotest.(check int) "none missed" 0 m.Sim.Metrics.heartbeats_missed

(* Every wall-clock run starts and joins a monitor domain, at P=1 too.
   OCaml 5.1 caps live domains at 128, so a run that leaked its monitor
   (or a worker) would make a later spawn fail within these 400 runs. *)
let monitor_lifecycle_no_leak () =
  let p = Test_runtime.make_irregular ~rows:40 ~max_size:6 ~seed:5 in
  let seq = Baselines.Serial_exec.run_program p in
  List.iter
    (fun workers ->
      for i = 1 to 200 do
        let r =
          Hb_parallel.Native_run.run ~beat:(Hb_parallel.Native_run.Wall_us 100.0) (cfg workers) p
        in
        if not (Sim.Run_result.fingerprints_close seq r) then
          Alcotest.failf "run %d at P=%d gave a wrong result" i workers
      done)
    [ 1; 2 ];
  check_bool "a domain still spawns afterwards" true (Domain.join (Domain.spawn (fun () -> true)))

let suite =
  [
    Alcotest.test_case "wall beats: counters balance at P=1,2" `Slow beat_counters_balance;
    Alcotest.test_case "poll beats: counters" `Quick every_polls_counters;
    Alcotest.test_case "monitor: 400 runs leak no domain" `Slow monitor_lifecycle_no_leak;
  ]
