exception Did_not_finish

exception Internal_error = Interp.Internal_error

type seeded_bug = Sim_backend.seeded_bug =
  | Duplicate_leftover  (* push the leftover task twice on promotion *)
  | Lose_stolen_task  (* drop one successfully stolen task on the floor *)
  | Promote_innermost  (* invert the promotion policy's target choice *)

let seeded_bug : seeded_bug option ref = ref None

let set_seeded_bug b = seeded_bug := b

(* Chunk-loop bookkeeping cycles per leaf-chunk invocation. *)
let chunking_cost = 2

(* The interpreter's cost sites in virtual time. Each site is one engine
   advance followed by fixed-arity per-kind attribution: no cost-part
   lists and no closures on the charge path. *)
module Hooks = struct
  type t = { cfg : Rt_config.t; sb : Sim_backend.t; bus : Sim.Membus.t }

  type worker = int  (* the engine worker id *)

  let worker h = Sim.Engine.worker_id h.sb.Sim_backend.eng

  let index w = w

  (* Emission never advances the clock or consumes randomness, so a run's
     results are identical whatever sink it carries. *)
  let emit h ev = Sim_backend.emit h.sb ev

  let cm h = h.cfg.Rt_config.cost

  (* Attribute cycles an advance already paid for. *)
  let charge h kind c = if c > 0 then Sim.Metrics.add_overhead h.sb.Sim_backend.metrics kind c

  (* Work plus [extra] overhead cycles in a single advance (hot path: one
     event per chunk); the caller [charge]s [extra] to its kinds. Memory
     traffic is booked on the shared bus; time past the compute cost is a
     bandwidth stall. *)
  let advance_mixed h ~work ~bytes ~extra =
    let eng = h.sb.Sim_backend.eng and metrics = h.sb.Sim_backend.metrics in
    let compute = work + extra in
    let total = Sim.Membus.serve h.bus ~now:(Sim.Engine.now eng) ~compute ~bytes in
    if total > 0 then Sim.Engine.advance eng total;
    metrics.Sim.Metrics.work_cycles <- metrics.Sim.Metrics.work_cycles + work;
    if total > compute then Sim.Metrics.add_overhead metrics Sim.Metrics.Membus (total - compute)

  let slice_entry h =
    let outline = (cm h).Sim.Cost_model.outline_call_cost
    and closure = (cm h).Sim.Cost_model.closure_load_cost in
    advance_mixed h ~work:0 ~bytes:0 ~extra:(outline + closure);
    charge h Sim.Metrics.Outline_call outline;
    charge h Sim.Metrics.Closure closure

  let lst_store h =
    Sim_backend.overhead h.sb Sim.Metrics.Lst_store (cm h).Sim.Cost_model.lst_store_cost

  let chunk_end h w ~work ~bytes ~poll ~chunked =
    let chunking = if chunked then chunking_cost else 0 in
    let transfer =
      if chunked && h.cfg.Rt_config.chunk_transferring then
        (cm h).Sim.Cost_model.chunk_transfer_cost
      else 0
    in
    let poll_c = if poll then Heartbeat.poll_cost h.sb.Sim_backend.hb ~worker:w else 0 in
    let branch = if poll then (cm h).Sim.Cost_model.promotion_branch_cost else 0 in
    advance_mixed h ~work ~bytes ~extra:(chunking + transfer + poll_c + branch);
    charge h Sim.Metrics.Chunking chunking;
    charge h Sim.Metrics.Chunk_transfer transfer;
    charge h Sim.Metrics.Poll poll_c;
    charge h Sim.Metrics.Promotion_branch branch;
    poll && Heartbeat.consume h.sb.Sim_backend.hb ~worker:w ~count_poll:true

  (* The iteration's own memory traffic is booked at the latch. *)
  let latch h w ~bytes =
    let branch = (cm h).Sim.Cost_model.promotion_branch_cost in
    advance_mixed h ~work:0 ~bytes ~extra:branch;
    charge h Sim.Metrics.Promotion_branch branch;
    Heartbeat.consume h.sb.Sim_backend.hb ~worker:w ~count_poll:false

  let work h _ ~work ~bytes = advance_mixed h ~work ~bytes ~extra:0

  let promotion_handler h =
    Sim_backend.overhead h.sb Sim.Metrics.Promotion (cm h).Sim.Cost_model.promotion_handler_cost

  let promotion_vetoed _ = false

  (* Each finishing task combines its half into the parent's locals, in
     completion order, and pays for it there. The simulation pin rejects
     spawn order: cg's floating-point fingerprint moves in its last bits,
     and charging the combines after the join shifts makespans. *)
  let reduction_order = Interp.Completion_order

  let reduction h (spec : Ir.Locals.spec) =
    Sim_backend.overhead h.sb Sim.Metrics.Reduction
      (8 + (2 * (spec.Ir.Locals.nfloats + spec.Ir.Locals.nints)))

  let seeded_bug h =
    if h.sb.Sim_backend.bug_fired then None else h.sb.Sim_backend.bug

  let fire_bug h = h.sb.Sim_backend.bug_fired <- true
end

(* The scheduler proper — deque discipline, steal protocol, joins, task
   lifecycle events — lives in the backend-agnostic policy core and the
   nest interpreter in [Interp]; this executor is their simulator
   instantiation plus the engine-level run control: heartbeat mechanisms,
   DNF and deadline caps, cycle budgets, guards and pause/resume. The
   same functors over [Hb_parallel.Domains_backend] run the identical
   policy on real OCaml 5 domains. *)
module I = Interp.Make (Sim_backend) (Hooks)

let run_program ?(request = Run_request.default) (cfg : Rt_config.t)
    (compiled : 'e Pipeline.program) : Sim.Run_result.t =
  let program = compiled.Pipeline.source in
  let env = program.Ir.Program.make_env () in
  let eng = Sim.Engine.create ~seed:cfg.Rt_config.seed ~num_workers:cfg.Rt_config.workers () in
  let metrics = Sim.Metrics.create () in
  let gate, observer = Interp.gated_observer request in
  (* Every runtime event flows through one tee: the counting sink keeps
     the scalar counters; the request's sink is whatever the caller wants
     to observe (usually null). The counting sink is not gated — the
     resume replay re-derives the counters from cycle 0, which is exactly
     what makes the final metrics byte-identical to an uninterrupted
     run. *)
  let trace = Obs.Trace.Sink.tee (Sim.Metrics.counting_sink metrics) observer in
  let inj =
    Sim.Fault_injector.create
      (Option.value request.Run_request.fault_plan ~default:Sim.Fault_plan.none)
      ~num_workers:cfg.Rt_config.workers ~trace
      ~now:(fun () -> Sim.Engine.now eng)
      ()
  in
  let hb = Heartbeat.create ~injector:inj ~trace cfg eng metrics in
  let capture = Obs.Trace.Sink.enabled request.Run_request.trace in
  let sb =
    Sim_backend.create ~eng ~cost:cfg.Rt_config.cost ~metrics ~trace ~capture ~inj ~hb
      ~workers:cfg.Rt_config.workers ~bug:!seeded_bug
  in
  let hooks =
    {
      Hooks.cfg;
      sb;
      bus =
        Sim.Membus.create ~bytes_per_cycle:cfg.Rt_config.cost.Sim.Cost_model.dram_bytes_per_cycle;
    }
  in
  let st = I.create ~cfg ~hooks ~core:(I.C.create sb) ~capture ~request compiled in
  Sim.Engine.set_diagnostics eng (fun w ->
      Printf.sprintf " deque=%d depth=%d%s"
        (Sim.Deque.length sb.Sim_backend.deques.(w))
        (I.C.depth st.I.core).(w)
        (if Heartbeat.is_downgraded hb ~worker:w then " downgraded" else ""));
  Heartbeat.start hb;
  (* A per-job deadline is a second DNF-style cap: whichever of the two
     fires first preempts the run, and the server maps a deadline-armed
     DNF to its structured Deadline_exceeded outcome. *)
  (match (request.Run_request.max_cycles, request.Run_request.deadline) with
  | None, None -> ()
  | caps ->
      let cap =
        match caps with
        | Some a, Some b -> Stdlib.min a b
        | Some a, None | None, Some a -> a
        | None, None -> assert false
      in
      Sim.Engine.schedule_at eng ~time:cap (fun () -> raise Did_not_finish));
  (match request.Run_request.cycle_budget with
  | Some budget -> Sim.Engine.set_budget eng budget
  | None -> ());
  (match request.Run_request.guard with
  | Some guard -> Sim.Engine.set_guard eng guard
  | None -> ());
  let termination = ref Sim.Run_result.Finished in
  let main w =
    if w = 0 then begin
      (* The driver itself counts as task depth so inline tasks do not
         clear worker 0's busy flag when they finish. *)
      (I.C.depth st.I.core).(0) <- 1;
      Heartbeat.set_busy hb ~worker:0 true;
      let cpu =
        {
          Ir.Program.exec = (fun nest -> I.exec_nest st compiled env nest);
          advance = (fun cyc -> Hooks.advance_mixed hooks ~work:cyc ~bytes:0 ~extra:0);
        }
      in
      let t0 = Sim.Engine.now eng in
      program.Ir.Program.driver env cpu;
      if capture && Sim.Engine.now eng > t0 then
        Hooks.emit hooks (Obs.Trace.Interval { t0; kind = "driver" });
      (I.C.depth st.I.core).(0) <- 0;
      Heartbeat.set_busy hb ~worker:0 false;
      I.C.set_finished st.I.core;
      Heartbeat.stop hb;
      Sim.Engine.unpark_all eng
    end
    else I.C.scavenge st.I.core
  in
  (* Observational state at the pause boundary the engine just stopped at.
     Every field is a pure function of the dispatch history, so an
     uninterrupted replay reaching the same boundary re-derives the same
     bytes — that is the resume-divergence check. *)
  let checkpoint_now ~at_cycle (episode, granted, regrants) =
    {
      Sim.Checkpoint_state.at_cycle;
      episode;
      rng_state = Sim.Sim_rng.state (Sim.Engine.rng eng);
      next_task_id = I.C.next_task_id st.I.core;
      work_cycles = metrics.Sim.Metrics.work_cycles;
      promotions_used = metrics.Sim.Metrics.promotions;
      granted;
      regrants;
      clocks = Array.init cfg.Rt_config.workers (fun w -> Sim.Engine.clock_of eng w);
      deques =
        Array.map
          (fun d -> List.map (fun (t : Sched.Task.t) -> t.Sched.Task.id) (Sim.Deque.to_list d))
          sb.Sim_backend.deques;
      slices = Interp.checkpoint_slices st.I.live_slices;
    }
  in
  (try
     match request.Run_request.resume_from with
     | None ->
         (match request.Run_request.pause_at with
         | Some p -> Sim.Engine.set_pause_at eng p
         | None -> ());
         Sim.Engine.run eng main;
         if Sim.Engine.paused eng then
           termination :=
             Sim.Run_result.Paused
               (checkpoint_now
                  ~at_cycle:(Option.get request.Run_request.pause_at)
                  (Interp.next_episode request ~applied:(-1)))
     | Some ck ->
         (* Effect fibers cannot be serialized, so resume replays the run
            from cycle 0 — determinism makes the replay byte-exact — and
            proves the re-derived boundary state matches the checkpoint
            before continuing past it. *)
         let ok = ref true in
         let diverged reason =
           ok := false;
           termination := Sim.Run_result.Guard_aborted ("resume-divergence: " ^ reason)
         in
         let started = ref false in
         let run_to cycle =
           Sim.Engine.set_pause_at eng cycle;
           if !started then Sim.Engine.continue_run eng
           else begin
             started := true;
             Sim.Engine.run eng main
           end;
           if not (Sim.Engine.paused eng) then
             diverged (Printf.sprintf "run finished before the boundary at cycle %d" cycle)
         in
         (* Re-apply the grant history so metered promotion decisions replay
            exactly as in the original episodes. *)
         List.iter
           (fun (cycle, grant) ->
             if !ok then begin
               run_to cycle;
               if !ok && grant >= 0 then Atomic.set st.I.promo_left grant
             end)
           ck.Sim.Checkpoint_state.regrants;
         if !ok then run_to ck.Sim.Checkpoint_state.at_cycle;
         if !ok then begin
           let derived =
             checkpoint_now ~at_cycle:ck.Sim.Checkpoint_state.at_cycle
               Sim.Checkpoint_state.(ck.episode, ck.granted, ck.regrants)
           in
           match I.resume_boundary st request ck ~derived with
           | Error reason -> diverged reason
           | Ok applied ->
               (* The replay reproduced the paused state exactly: open the
                  gate and run for real. *)
               gate := true;
               (match request.Run_request.pause_at with
               | Some p when p > ck.Sim.Checkpoint_state.at_cycle -> Sim.Engine.set_pause_at eng p
               | Some _ | None -> Sim.Engine.clear_pause eng);
               Sim.Engine.continue_run eng;
               if Sim.Engine.paused eng then
                 termination :=
                   Sim.Run_result.Paused
                     (checkpoint_now
                        ~at_cycle:(Option.get request.Run_request.pause_at)
                        (Interp.next_episode request ~applied))
         end
   with
  | Did_not_finish -> termination := Sim.Run_result.Dnf
  | Sim.Engine.Budget_exceeded { budget; time } ->
      termination := Sim.Run_result.Budget_exceeded { budget; at = time }
  | Sim.Engine.Guard_stop reason -> termination := Sim.Run_result.Guard_aborted reason);
  {
    Sim.Run_result.makespan = Sim.Engine.max_time eng;
    metrics;
    fingerprint = program.Ir.Program.fingerprint env;
    work_cycles = metrics.Sim.Metrics.work_cycles;
    dnf = (!termination = Sim.Run_result.Dnf);
    termination = !termination;
    trace = Obs.Trace.Sink.captured request.Run_request.trace;
    sanitizer = None;
  }

let run ?request cfg program =
  run_program ?request cfg (Pipeline.compile_program ~chunk:cfg.Rt_config.chunk program)
