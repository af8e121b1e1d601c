(* sim-campaign: the Fig. 4 campaign in the simulator — the 13 irregular
   programs under the serial reference, HBC and OpenMP dynamic at P = 64 —
   repeated from a cleared cache until the time is up. The first campaign
   is a discarded warm-up. Every harness call is timed from outside. The
   traced variant adds an HBC pass per campaign under a counting sink and
   the sanitizer. *)

let workers = 64

let run r ~scale ~seed ~seconds ~traced =
  let entries = Workloads.Registry.irregular_set () in
  let progs, setup = Prog.setup (List.map (fun e -> e.Workloads.Registry.name) entries) ~scale in
  Prog.record_setup r setup;
  Experiments.Harness.set_journal None;
  let config = { Experiments.Harness.default_config with scale; workers; seed } in
  let counts = List.map (fun n -> (n, Atomic.make 0)) Native.counted in
  let violations = ref 0 in
  let timed name f =
    let t0 = Prog.now () in
    let x = Span.with_ name f in
    (Prog.now () -. t0, x)
  in
  let campaign () =
    Experiments.Harness.clear_cache ();
    Prog.timed_op @@ fun () ->
    Span.with_ "campaign" @@ fun () ->
      List.map
        (fun e ->
          let tb, base = timed "harness.baseline" (fun () -> Experiments.Harness.baseline config e) in
          Metric.check r
            (Sim.Run_result.completed base && base.Sim.Run_result.work_cycles > 0)
            (e.Workloads.Registry.name ^ " baseline");
          let th, hbc = timed "harness.run_hbc" (fun () -> Experiments.Harness.run_hbc config e) in
          let tm, omp = timed "harness.run_omp" (fun () -> Experiments.Harness.run_omp ~tag:"omp-dyn1" config e) in
          List.iter
            (fun (o : Experiments.Harness.outcome) ->
              Metric.check r
                (o.Experiments.Harness.valid && o.Experiments.Harness.error = None)
                (e.Workloads.Registry.name ^ " trial invalid"))
            [ hbc; omp ];
          (tb, th, tm, hbc, omp))
        entries
  in
  let traced_pass () =
    List.fold_left
      (fun acc e ->
        let request, san = Native.sanitized counts in
        let t, o = timed "harness.run_hbc.traced" (fun () ->
              Experiments.Harness.run_hbc ~request ~tag:"hbc-traced" config e) in
        Metric.check r o.Experiments.Harness.valid (e.Workloads.Registry.name ^ " traced trial invalid");
        violations := !violations + Native.verdict r san e.Workloads.Registry.name;
        acc +. t)
      0.0 entries
  in
  let serial_pass () =
    List.fold_left
      (fun acc p ->
        let t, res = Prog.timed p Prog.Serial in
        Metric.check r (Sim.Run_result.completed res) (Prog.name p ^ " serial");
        acc +. t)
      0.0 progs
  in
  ignore (campaign ());
  ignore (Prog.take_peak ());
  let runs = ref [] and peaks = ref [] and cals = ref [] in
  let deadline = Prog.now () +. seconds in
  while !runs = [] || Prog.now () < deadline do
    cals := Prog.calibrate () :: !cals;
    let total, per = campaign () in
    peaks := Prog.take_peak () :: !peaks;
    let extra = if traced then Some (traced_pass (), serial_pass ()) else None in
    runs := (total, per, extra) :: !runs
  done;
  let n = List.length !runs in
  let totals = List.map (fun (t, _, _) -> t) !runs in
  let _, last, _ = List.hd !runs in
  let speedups pick =
    Metric.geomean (List.map (fun x -> (pick x).Experiments.Harness.speedup) last)
  in
  let hbc_geo = speedups (fun (_, _, _, h, _) -> h) in
  Metric.set r "sim_speedup_geo" ~n hbc_geo;
  Metric.set r "heap_peak_mb" ~n (Metric.median !peaks);
  Metric.set r "sim.omp_speedup_geo" ~n (speedups (fun (_, _, _, _, o) -> o));
  if not traced then begin
    Metric.record_walls r ~what:"Fig. 4 campaigns" totals !cals;
    Metric.set r "speedup" ~n hbc_geo ~note:"simulated HBC geomean at P=64 (sim_speedup_geo)"
  end
  else begin
    let med f = Metric.median (List.map f !runs) in
    let sum f (_, per, _) = List.fold_left (fun a x -> a +. f x) 0.0 per in
    let total = med (fun (t, _, _) -> t) in
    let base = med (sum (fun (t, _, _, _, _) -> t)) in
    let hbc = med (sum (fun (_, t, _, _, _) -> t)) in
    let omp = med (sum (fun (_, _, t, _, _) -> t)) in
    let other = med (fun ((t, _, _) as x) -> t -. sum (fun (a, b, c, _, _) -> a +. b +. c) x) in
    Metric.set r "harness.baseline_s" ~n base;
    Metric.set r "executor.hbc_s" ~n hbc;
    Metric.set r "openmp.dynamic_s" ~n omp;
    Metric.set r "harness.other_s" ~n other;
    Metric.set r "harness.baseline_frac" ~n (base /. total);
    Metric.set r "executor.hbc_frac" ~n (hbc /. total);
    Metric.set r "openmp.dynamic_frac" ~n (omp /. total);
    Metric.set r "harness.other_frac" ~n (other /. total);
    let hbc_metric f =
      List.fold_left (fun a (_, _, _, h, _) -> a + f h.Experiments.Harness.result) 0 last
    in
    let sim_cycles = hbc_metric (fun res -> res.Sim.Run_result.makespan * workers) in
    Metric.set r "sim.cycles_per_s" ~n (float_of_int sim_cycles /. hbc);
    (* Each simulated counter, with the traced event it must equal: the
       sim's tracing is off-equals-on, so the traced pass repeats the
       untraced schedule exactly. *)
    List.iter
      (fun (name, traced_name, f) ->
        let v = hbc_metric (fun res -> f res.Sim.Run_result.metrics) in
        Metric.set r name ~n:1 (float_of_int v);
        Option.iter
          (fun t ->
            Metric.check r
              (Atomic.get (List.assoc t counts) = n * v)
              (name ^ " differs from the traced " ^ t))
          traced_name)
      [
        ("sim.polls", Some "trace.polls", fun m -> m.Sim.Metrics.polls);
        ("sim.heartbeats_detected", Some "trace.heartbeats_detected", fun m -> m.Sim.Metrics.heartbeats_detected);
        ("sim.promotions", Some "trace.promotions", fun m -> m.Sim.Metrics.promotions);
        ("sim.steal_attempts", Some "trace.steal_attempts", fun m -> m.Sim.Metrics.steal_attempts);
        ("sim.steals", Some "trace.steal_successes", fun m -> m.Sim.Metrics.steals);
        ("sim.overhead_cycles", None, fun m -> m.Sim.Metrics.overhead_cycles);
      ];
    let traced_hbc = med (fun (_, _, x) -> fst (Option.get x)) in
    Metric.set r "serial_exec.run_s" ~n (med (fun (_, _, x) -> snd (Option.get x)));
    Metric.set r "obs.trace_overhead" ~n (traced_hbc /. hbc);
    Native.record_counts r counts ~n;
    Metric.set r "sanitizer.violations" ~n (float_of_int !violations)
  end;
  n
