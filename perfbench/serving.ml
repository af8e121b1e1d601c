(* serve-preempt: the multi-tenant job server under open-loop Poisson
   arrivals above the pool's capacity, with deadline-quantum preemption
   (pause, checkpoint, requeue, replay-with-byte-verify on resume), every
   completed job verified against its serial reference and every run
   sanitized. One operation is one [Serve.Server.run] on its own arrival
   draw; the virtual-time figures aggregate over the run's draws. *)

(* Each tenant draws its jobs from all three workloads: a tenant bound to
   one workload makes goodput swing with how many of the heavy jobs
   happen to finish. *)
let workloads = [ "plus-reduce-array"; "mandelbrot"; "spmv-powerlaw" ]
let tenants = 3
let jobs_per_tenant = 130

let config ~scale ~seed ~trace =
  let tenant i =
    {
      Serve.Server.tenant_default with
      Serve.Server.weight = 1 + (i mod 2);
      arrival = Serve.Arrival.Poisson { mean_gap = 90_000.0 };
      jobs = jobs_per_tenant;
      workloads;
      scale;
      workers_wanted = 2 + (2 * (i mod 2));
      deadline = Some (20_000, 40_000);
    }
  in
  {
    Serve.Server.default_config with
    Serve.Server.tenants = Array.init tenants tenant;
    queue_capacity = 32;
    seed;
    preempt = Serve.Server.Pause_and_requeue;
    max_preempts = 64;
    verify = true;
    sanitize = true;
    trace;
  }

(* Server lifecycle events, counted on the traced run. *)
let counted = [ "server.admitted"; "server.shed"; "server.checkpointed"; "server.resumed" ]

let counting_sink counts =
  let bump name = Atomic.incr (List.assoc name counts) in
  Obs.Trace.Sink.fn (fun ~time:_ ~worker:_ ev ->
      match ev with
      | Obs.Trace.Job_admitted _ -> bump "server.admitted"
      | Job_shed _ -> bump "server.shed"
      | Job_checkpointed _ -> bump "server.checkpointed"
      | Job_resumed _ -> bump "server.resumed"
      | _ -> ())

let run r ~scale ~seed ~seconds ~traced =
  let progs, setup = Prog.setup workloads ~scale in
  Prog.record_setup r setup;
  let violations = ref 0 in
  (* Operation [k] serves its own arrival draw: the workload seed picks a
     sequence of server seeds, so the aggregates average over draws. *)
  let serve k trace =
    let dt, res =
      Prog.timed_op (fun () ->
          Span.with_ "server.run" (fun () ->
              Serve.Server.run (config ~scale ~seed:((seed * 1009) + k) ~trace)))
    in
    let s = res.Serve.Server.stats in
    List.iter
      (fun (j : Serve.Server.job_report) ->
        Metric.check r (not j.Serve.Server.mismatch)
          (Printf.sprintf "job %d (%s) output mismatch" j.Serve.Server.job j.Serve.Server.workload))
      res.Serve.Server.reports;
    let v = List.length res.Serve.Server.violations in
    violations := !violations + v;
    Metric.check r (v = 0) (Printf.sprintf "%d sanitizer violation(s)" v);
    Metric.check r (s.Serve.Server.completed >= 200)
      (Printf.sprintf "only %d jobs completed" s.Serve.Server.completed);
    (dt, res)
  in
  ignore (serve 0 Obs.Trace.Sink.null);
  ignore (Prog.take_peak ());
  let runs = ref [] and peaks = ref [] and cals = ref [] in
  let deadline = Prog.now () +. seconds in
  while !runs = [] || Prog.now () < deadline do
    cals := Prog.calibrate () :: !cals;
    runs := serve (List.length !runs + 1) Obs.Trace.Sink.null :: !runs;
    peaks := Prog.take_peak () :: !peaks
  done;
  let runs = List.rev !runs in
  let n = List.length runs in
  let walls = List.map fst runs in
  let stats = List.map (fun (_, res) -> res.Serve.Server.stats) runs in
  let fi = float_of_int in
  let total f = fi (List.fold_left (fun a s -> a + f s) 0 stats) in
  let mean f = total f /. fi n in
  let work =
    List.fold_left (fun a s -> a +. (s.Serve.Server.goodput *. fi s.Serve.Server.makespan)) 0.0 stats
  in
  let goodput = work /. total (fun s -> s.Serve.Server.makespan) in
  Metric.set r "heap_peak_mb" ~n (Metric.median !peaks);
  if not traced then begin
    Metric.record_walls r ~what:"server runs" walls (List.rev !cals);
    Metric.set r "speedup" ~n goodput
      ~note:"goodput: completed serial work per server cycle, over all runs"
  end
  else begin
    (* The first three draws again, under a counting sink; its counts
       must match the server's own stats, run for run. *)
    let counts = List.map (fun n -> (n, Atomic.make 0)) counted in
    let traced_runs = List.init (min 3 n) (fun k -> serve (k + 1) (counting_sink counts)) in
    let first k = List.filteri (fun i _ -> i < k) in
    let sum = List.fold_left ( +. ) 0.0 in
    let k = List.length traced_runs in
    Metric.set r "obs.trace_overhead" ~n:k
      (sum (List.map fst traced_runs) /. sum (first k walls));
    List.iter
      (fun (name, c) ->
        let stat (s : Serve.Server.stats) =
          match name with
          | "server.admitted" -> s.Serve.Server.admitted
          | "server.shed" -> s.Serve.Server.shed
          | "server.checkpointed" -> s.Serve.Server.checkpointed
          | _ -> s.Serve.Server.resumed
        in
        let expected = List.fold_left (fun a s -> a + stat s) 0 (first k stats) in
        Metric.check r (Atomic.get c = expected) (name ^ ": trace count differs from stats");
        Metric.set r name ~n (mean stat))
      counts;
    Metric.set r "sanitizer.violations" ~n:(n + k + 1) (fi !violations);
    Metric.set r "server.deadline_exceeded" ~n (mean (fun s -> s.Serve.Server.deadline_exceeded));
    Metric.set r "server.breaker_opens" ~n (mean (fun s -> s.Serve.Server.breaker_opens));
    Metric.set r "server.submitted" ~n (mean (fun s -> s.Serve.Server.submitted));
    Metric.set r "server.completed" ~n (mean (fun s -> s.Serve.Server.completed));
    let submitted = total (fun s -> s.Serve.Server.submitted) in
    Metric.set r "server.jobs_per_s" ~n (submitted /. sum walls);
    Metric.set r "server.wall_per_job_ms" ~n (1000.0 *. sum walls /. submitted);
    let completed_jobs =
      List.concat_map
        (fun (_, res) ->
          List.filter
            (fun (j : Serve.Server.job_report) -> j.Serve.Server.outcome = Serve.Server.Completed)
            res.Serve.Server.reports)
        runs
    in
    let episodes = List.fold_left (fun a (j : Serve.Server.job_report) -> a + 1 + j.Serve.Server.episodes) 0 completed_jobs in
    Metric.set r "server.episodes_per_completed" ~n
      (fi episodes /. fi (List.length completed_jobs));
    Metric.set r "goodput" ~n goodput;
    Metric.set r "completed_ratio" ~n (total (fun s -> s.Serve.Server.completed) /. submitted);
    Metric.set r "sojourn_p50_cycles" ~n (Metric.median (List.map (fun s -> s.Serve.Server.sojourn_p50) stats));
    Metric.set r "sojourn_p95_cycles" ~n (Metric.median (List.map (fun s -> s.Serve.Server.sojourn_p95) stats));
    let serial_pass () = List.fold_left (fun a p -> a +. fst (Prog.timed p Prog.Serial)) 0.0 progs in
    Metric.set r "serial_exec.run_s" ~n:5 (Metric.median (List.init 5 (fun _ -> serial_pass ())))
  end;
  n
