(* Cross-version simulation pin: a committed golden file of every
   simulated result a schedule change would shift. For each Fig. 4
   program at a tiny scale, under HBC and OpenMP dynamic at P=8 and P=64
   (plus OpenMP with every DOALL loop under a pragma, TPAL, a zero-cost
   interrupt mechanism, no chunking and a fault plan at P=8, and recursive
   fork-join), one line records the makespan,
   work, every counter, the per-level promotions, the overhead by kind
   (every attributed kind, including ones charged 0), the fingerprint, and
   MD5s of the captured trace and of the run's journal line.

   Reruns of one build are already compared by "sim: byte-identical
   reruns"; this file is the pin across builds. When a change is meant to
   shift schedules, the test writes the new rendering next to the test
   binary as sim_pin.actual, to be reviewed and copied over
   golden/sim_pin.txt.

   The native pin does the same for the domains backend at one worker
   under the deterministic poll-count beat, where a run is byte-stable:
   for each Fig. 4 program under HBC (plus static chunking, no chunking,
   TPAL's inline leftover, a promotion budget of 3, a portable chaos plan
   and one pause at a fixed boundary), one line records the fingerprint,
   body work, polls, detected beats, promotions, downgrades, the pause's
   checkpoint digest and the captured trace's length and MD5. Native
   traces stamp a logical tick, not wall time, so they too are
   reproducible; a mismatch writes native_pin.actual. *)

let scale = 0.01

let seed = 1

let overhead_pairs (m : Sim.Metrics.t) =
  List.map (fun (k, v) -> (Sim.Metrics.kind_name k, v)) (Sim.Metrics.overheads m)
  |> List.sort compare

let kvs pairs = String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) pairs)

let md5 s = Digest.to_hex (Digest.string s)

let line ~bench ~tag ~workers (r : Sim.Run_result.t) =
  let m = r.Sim.Run_result.metrics in
  (* The trace is pinned by its own digest; leaving it out of the journal
     line keeps the JSON encoding of large traces out of the test time. *)
  let journal =
    Experiments.Checkpoint.entry_to_json
      {
        Experiments.Checkpoint.key = "pin";
        bench;
        tag;
        scale;
        workers;
        seed;
        status = Experiments.Checkpoint.Completed { r with Sim.Run_result.trace = [] };
      }
  in
  Printf.sprintf
    "%s %s P=%d makespan=%d work=%d dnf=%b fp=%h counters=%s levels=%s overhead=%s \
     trace=%d:%s journal=%s"
    bench tag workers r.Sim.Run_result.makespan r.Sim.Run_result.work_cycles
    r.Sim.Run_result.dnf r.Sim.Run_result.fingerprint
    (kvs (Sim.Metrics.counters m))
    (String.concat "," (Array.to_list (Array.map string_of_int m.Sim.Metrics.promotions_by_level)))
    (kvs (overhead_pairs m))
    (List.length r.Sim.Run_result.trace)
    (md5 (Marshal.to_string r.Sim.Run_result.trace [ Marshal.No_sharing ]))
    (md5 journal)

let traced () = Hbc_core.Run_request.make ~trace:(Obs.Trace.Sink.stream ()) ()

let faulty () =
  let plan =
    {
      Sim.Fault_plan.none with
      Sim.Fault_plan.seed = 5;
      steal_fail_prob = 0.3;
      steal_fail_burst = 2;
      stall_prob = 0.05;
      stall_cycles = 2_000;
    }
  in
  Hbc_core.Run_request.make ~fault_plan:plan ~trace:(Obs.Trace.Sink.stream ()) ()

let hbc ?(request = traced) ?(f = fun c -> c) workers p =
  Hbc_core.Executor.run ~request:(request ())
    (f { Hbc_core.Rt_config.default with workers; seed })
    p

let omp ?(nested = Baselines.Openmp.Outermost_only) ?max_cycles workers p =
  Baselines.Openmp.run_program
    ~request:(Hbc_core.Run_request.make ?max_cycles ~trace:(Obs.Trace.Sink.stream ()) ())
    { (Baselines.Openmp.dynamic ~workers ()) with Baselines.Openmp.seed; nested }
    p

(* Interrupt-driven beats whose delivery costs nothing: the mechanism still
   attributes its (zero) cost, which the journal lists as "interrupt": 0. *)
let zero_interrupt (c : Hbc_core.Rt_config.t) =
  {
    c with
    Hbc_core.Rt_config.mechanism = Hbc_core.Rt_config.Interrupt_kernel_module;
    cost =
      {
        c.Hbc_core.Rt_config.cost with
        Sim.Cost_model.interrupt_delivery_cost = 0;
        rollforward_lookup_cost = 0;
      };
  }

let program_lines (entry : Workloads.Registry.entry) =
  let bench = entry.Workloads.Registry.name in
  let (Ir.Program.Any p) = entry.Workloads.Registry.make scale in
  let tpal (c : Hbc_core.Rt_config.t) =
    { (Hbc_core.Rt_config.tpal ~chunk:entry.Workloads.Registry.tpal_chunk) with
      Hbc_core.Rt_config.workers = c.Hbc_core.Rt_config.workers;
      seed;
    }
  in
  let no_chunking c = { c with Hbc_core.Rt_config.chunk = Hbc_core.Compiled.No_chunking } in
  let hbc8 = hbc 8 p in
  (* Every DOALL loop under a pragma does not finish on several programs
     (Sec. 6.7); the cap keeps those runs short and deterministic. *)
  let max_cycles = 4 * hbc8.Sim.Run_result.work_cycles in
  [
    line ~bench ~tag:"hbc" ~workers:8 hbc8;
    line ~bench ~tag:"hbc" ~workers:64 (hbc 64 p);
    line ~bench ~tag:"omp-dyn1" ~workers:8 (omp 8 p);
    line ~bench ~tag:"omp-dyn1" ~workers:64 (omp 64 p);
    line ~bench ~tag:"omp-nested" ~workers:8
      (omp ~nested:Baselines.Openmp.All_doall ~max_cycles 8 p);
    line ~bench ~tag:"tpal" ~workers:8 (hbc ~f:tpal 8 p);
    line ~bench ~tag:"hbc-km-free" ~workers:8 (hbc ~f:zero_interrupt 8 p);
    line ~bench ~tag:"hbc-nochunk" ~workers:8 (hbc ~f:no_chunking 8 p);
    line ~bench ~tag:"hbc-faults" ~workers:8 (hbc ~request:faulty 8 p);
  ]

let rec fib ctx n =
  if n < 2 then begin
    Hbc_core.Fork_join.advance ctx 25;
    n
  end
  else begin
    let a, b = Hbc_core.Fork_join.fork2 ctx (fun c -> fib c (n - 1)) (fun c -> fib c (n - 2)) in
    Hbc_core.Fork_join.advance_bytes ctx ~compute:12 ~bytes:64;
    a + b
  end

let fork_join_line workers =
  let cfg = { Hbc_core.Rt_config.default with workers; seed } in
  let r = Hbc_core.Fork_join.run ~cfg (fun ctx -> ignore (fib ctx 18)) in
  Printf.sprintf
    "fib-18 fork-join P=%d makespan=%d work=%d promoted=%d sequential=%d counters=%s overhead=%s"
    workers r.Hbc_core.Fork_join.makespan r.Hbc_core.Fork_join.work_cycles
    r.Hbc_core.Fork_join.promoted_forks r.Hbc_core.Fork_join.sequential_forks
    (kvs (Sim.Metrics.counters r.Hbc_core.Fork_join.metrics))
    (kvs (overhead_pairs r.Hbc_core.Fork_join.metrics))

let render () =
  List.concat_map program_lines (Workloads.Registry.irregular_set ())
  @ [ fork_join_line 8; fork_join_line 64 ]

(* ------------------------------------------------------------------ *)
(* Native pin: domains backend, P=1, Every_polls 16, traced.             *)
(* ------------------------------------------------------------------ *)

let native_cfg = { Hbc_core.Rt_config.default with workers = 1 }

let native_chaos =
  {
    Sim.Fault_plan.none with
    Sim.Fault_plan.seed = 0x5EED;
    beat_drop_prob = 0.3;
    stall_prob = 0.1;
    stall_polls = 8;
  }

let native ?(f = fun c -> c) ?promotion_budget ?fault_plan ?pause_at p =
  let request =
    Hbc_core.Run_request.make ~backend:Sched.Policy.Domains ?promotion_budget ?fault_plan
      ?pause_at ~trace:(Obs.Trace.Sink.stream ()) ()
  in
  Hb_parallel.Native_run.run ~request ~beat:(Hb_parallel.Native_run.Every_polls 16) (f native_cfg)
    p

let native_line ~bench ~tag (r : Sim.Run_result.t) =
  let m = r.Sim.Run_result.metrics in
  let term =
    match r.Sim.Run_result.termination with
    | Sim.Run_result.Paused ck -> "paused:" ^ Sim.Checkpoint_state.digest ck
    | t -> Sim.Run_result.termination_to_string t
  in
  Printf.sprintf
    "%s %s fp=%h work=%d polls=%d detected=%d promotions=%d downgrades=%d %s trace=%d:%s" bench
    tag r.Sim.Run_result.fingerprint r.Sim.Run_result.work_cycles m.Sim.Metrics.polls
    m.Sim.Metrics.heartbeats_detected m.Sim.Metrics.promotions m.Sim.Metrics.downgrades term
    (List.length r.Sim.Run_result.trace)
    (md5 (Marshal.to_string r.Sim.Run_result.trace [ Marshal.No_sharing ]))

let native_program_lines (entry : Workloads.Registry.entry) =
  let bench = entry.Workloads.Registry.name in
  let (Ir.Program.Any p) = entry.Workloads.Registry.make scale in
  let static c = { c with Hbc_core.Rt_config.chunk = Hbc_core.Compiled.Static 8 } in
  let no_chunking c = { c with Hbc_core.Rt_config.chunk = Hbc_core.Compiled.No_chunking } in
  let tpal (c : Hbc_core.Rt_config.t) =
    {
      (Hbc_core.Rt_config.tpal ~chunk:entry.Workloads.Registry.tpal_chunk) with
      Hbc_core.Rt_config.workers = c.Hbc_core.Rt_config.workers;
    }
  in
  [
    native_line ~bench ~tag:"hbc" (native p);
    native_line ~bench ~tag:"static8" (native ~f:static p);
    native_line ~bench ~tag:"nochunk" (native ~f:no_chunking p);
    native_line ~bench ~tag:"tpal" (native ~f:tpal p);
    native_line ~bench ~tag:"budget3" (native ~promotion_budget:3 p);
    native_line ~bench ~tag:"chaos" (native ~fault_plan:native_chaos p);
    native_line ~bench ~tag:"pause300" (native ~pause_at:300 p);
  ]

let native_render () = List.concat_map native_program_lines (Workloads.Registry.irregular_set ())

let matches_golden ~golden ~actual_file ~what render () =
  let actual = render () in
  let expected =
    In_channel.with_open_text golden In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  if actual <> expected then begin
    let oc = open_out actual_file in
    List.iter (fun l -> output_string oc (l ^ "\n")) actual;
    close_out oc;
    let rec first_diff = function
      | e :: es, a :: as_ -> if e = a then first_diff (es, as_) else Some (e, a)
      | e :: _, [] -> Some (e, "<missing>")
      | [], a :: _ -> Some ("<missing>", a)
      | [], [] -> None
    in
    match first_diff (expected, actual) with
    | Some (e, a) -> Alcotest.failf "%s pin differs:\nexpected %s\nactual   %s" what e a
    | None -> ()
  end

let suite =
  [
    Alcotest.test_case "sim pin matches golden file" `Quick
      (matches_golden ~golden:"golden/sim_pin.txt" ~actual_file:"sim_pin.actual" ~what:"simulation"
         render);
    Alcotest.test_case "native pin matches golden file" `Quick
      (matches_golden ~golden:"golden/native_pin.txt" ~actual_file:"native_pin.actual"
         ~what:"native" native_render);
  ]
