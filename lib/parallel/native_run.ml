(* The native runtime: the shared nest interpreter ([Hbc_core.Interp])
   instantiated over real OCaml 5 domains ([Domains_backend]), plus what
   only real domains need.

   Cheap polls. Under [Wall_us] the monitor domain is the beat source —
   the paper's ping thread (§2/§5): it reads the clock once per wake and
   sets each busy worker's beat flag, so a poll is a read of the worker's
   own flag, never a clock read. Everything a worker writes per poll (the
   flag, beat and poll counters, progress, body work, chaos stall and
   watchdog state) lives in one padded record per worker
   ([Domains_backend.slot]) that each task carries as its worker handle,
   so polls touch no shared cache line and no domain-local storage.

   Fault tolerance (all strictly opt-in):

   - Chaos: a backend-portable [Sim.Fault_plan] attaches a
     [Sim.Fault_injector] to the backend. Steal refusals and wakeup
     suppressions are drawn inside the backend; dropped beats and
     poll-counted stalls are drawn here at beat boundaries, from
     per-worker seeded streams reproducible from (plan seed, P).

   - Watchdog ladder: rung 1 downgrades a beat-starved worker
     ([watchdog_k] consecutive suppressed beats) to polling fallback;
     rung 2, sampled on the monitor domain, vetoes further promotions
     when a busy worker makes no progress for a bounded window. Both
     emit [Mechanism_downgrade].

   - Pause/checkpoint-resume: under [Every_polls] with one worker, a run
     pauses at a progress-mark boundary, serializes a
     [Sim.Checkpoint_state], and resumes by replaying from scratch with
     the trace gated until the boundary, where the re-derived state must
     be byte-identical — fibers and stacks cannot be serialized,
     determinism can. *)

module Rt_config = Hbc_core.Rt_config
module Pipeline = Hbc_core.Pipeline
module Run_request = Hbc_core.Run_request
module Interp = Hbc_core.Interp

exception Internal_error = Interp.Internal_error

(* Pause/resume control flow: [Pause_now] unwinds the run at the armed
   boundary (the heap state it needs — contexts, live-slice registry,
   deques — survives the unwind untouched); [Resume_diverged] aborts a
   replay whose re-derived boundary state mismatched the checkpoint. *)
exception Pause_now

exception Resume_diverged of string

(* When a native worker observes a heartbeat. [Wall_us] is the paper's
   interval timer, driven by the monitor domain; [Every_polls] is a
   deterministic poll-count proxy that makes single-domain runs
   reproducible (benchgate, CI smoke). *)
type beat_source = Wall_us of float | Every_polls of int

(* The interpreter's hooks on real domains: real time is simply spent, so
   every cost site adds body work to the task's worker record or does
   nothing. *)
module Hooks = struct
  type t = {
    cfg : Rt_config.t;
    b : Domains_backend.t;
    beat : beat_source;
    slots : Domains_backend.slot array;
        (* per-worker padded records: beat flag and counters, progress (the
           scheduling-point counter every beat check bumps: the
           pause-boundary clock at P=1 and the liveness signal the monitor
           watchdog samples), body work, chaos stall/watchdog state *)
    capture : bool;
    chaos : bool;  (* an active fault injector is attached to the backend *)
    downgrades : int Atomic.t;
    promo_disabled : bool Atomic.t;  (* watchdog rung 2: no further splits *)
    mutable next_mark : int;
        (* progress value of the next pause/regrant/verify boundary on
           worker 0; max_int when none is armed (the common case) *)
    mutable on_mark : unit -> unit;
  }

  (* A task carries its worker's record, so the hot path needs no
     domain-local lookup. *)
  type worker = Domains_backend.slot

  let worker h = h.slots.(Domains_backend.worker_id h.b)

  let index (s : worker) = s.index

  (* An uncaptured run's sink drops every event, so skip the critical
     section (and its closure) outright. *)
  let emit h ev =
    if h.capture then Domains_backend.critical h.b (fun () -> Domains_backend.emit h.b ev)

  let add_work (s : worker) c = if c > 0 then s.work <- s.work + c

  let slice_entry _ = ()

  let lst_store _ = ()

  let work _ s ~work ~bytes:_ = add_work s work

  let promotion_handler _ = ()

  (* A beat reached [s]'s boundary under chaos on a non-downgraded worker:
     decide delivery. An injected stall window or a drop suppresses it;
     [watchdog_k] consecutive suppressions trip rung 1 — from then on the
     worker polls for beats directly (downgraded), so starvation is
     bounded by [watchdog_k] beat periods. *)
  let chaos_beat h (s : worker) =
    let inj = Domains_backend.injector h.b in
    let w = s.index in
    let suppressed =
      if s.stall_left > 0 then true
      else begin
        let k = Sim.Fault_injector.stall_polls inj ~worker:w in
        if k > 0 then begin
          s.stall_left <- k;
          true
        end
        else Sim.Fault_injector.drop_beat inj ~worker:w
      end
    in
    if not suppressed then begin
      s.since_beat <- 0;
      true
    end
    else begin
      s.since_beat <- s.since_beat + 1;
      if s.since_beat >= h.cfg.Rt_config.watchdog_k then begin
        s.downgraded <- true;
        s.stall_left <- 0;
        Atomic.incr h.downgrades;
        emit h Obs.Trace.Mechanism_downgrade;
        (* the fallback poll delivers the beat that tripped the watchdog *)
        true
      end
      else false
    end

  (* One heartbeat check on this task's worker. A leaf poll counts
     ([count_poll]); a non-leaf latch only reads the flag, exactly as in
     the simulator. Under [Wall_us] the check reads and clears the flag
     the monitor sets — no clock read; under [Every_polls] it compares the
     poll count with the next beat's. Every call bumps the progress
     counter; a beat seen here counts detected even when chaos then
     suppresses it (the fault counters record that). Chaos and pause marks
     cost nothing when unarmed thanks to the [chaos] bool and the max_int
     sentinel. *)
  let consume h (s : worker) ~count_poll =
    s.progress <- s.progress + 1;
    if count_poll then begin
      s.polls <- s.polls + 1;
      if h.chaos && s.stall_left > 0 then s.stall_left <- s.stall_left - 1
    end;
    if s.progress = h.next_mark then h.on_mark ();
    let boundary =
      match h.beat with
      | Every_polls n ->
          if s.polls >= s.poll_beat_at then begin
            s.poll_beat_at <- s.polls + n;
            true
          end
          else false
      | Wall_us _ ->
          if s.beat then begin
            s.beat <- false;
            true
          end
          else false
    in
    if boundary then begin
      s.detected <- s.detected + 1;
      (not h.chaos) || s.downgraded || chaos_beat h s
    end
    else false

  let chunk_end h s ~work ~bytes:_ ~poll ~chunked:_ =
    add_work s work;
    poll && consume h s ~count_poll:true

  let latch h s ~bytes:_ = consume h s ~count_poll:false

  (* The rung-2 watchdog can veto all further splits. *)
  let promotion_vetoed h = Atomic.get h.promo_disabled

  (* Reduction halves are combined on the owner after the join, in spawn
     order: two tasks mutating the parent's locals concurrently would
     race, and the join's acquire publishes their writes. *)
  let reduction_order = Interp.Spawn_order

  let reduction _ _ = ()

  let seeded_bug _ = None

  let fire_bug _ = ()
end

module I = Interp.Make (Domains_backend) (Hooks)

let run_program ?(request = Run_request.default) ?(beat = Wall_us 100.0) (cfg : Rt_config.t)
    (compiled : 'e Pipeline.program) : Sim.Run_result.t =
  (* Capability checks, with precise errors: fault plans are accepted
     when every kind is backend-portable; pause/resume is accepted under
     the deterministic beat with one worker. *)
  (match request.Run_request.fault_plan with
  | Some plan when not (Sim.Fault_plan.is_zero plan) -> (
      match Sim.Fault_plan.simulator_only plan with
      | [] -> ()
      | bad ->
          invalid_arg
            (Printf.sprintf
               "Native_run: fault plan uses simulator-only kinds: %s; drop them or run on \
                --backend sim"
               (String.concat ", " bad)))
  | Some _ | None -> ());
  let pausing =
    Option.is_some request.Run_request.pause_at || Option.is_some request.Run_request.resume_from
  in
  let n = Stdlib.max 1 cfg.Rt_config.workers in
  if pausing then begin
    (match beat with
    | Every_polls _ -> ()
    | Wall_us _ ->
        invalid_arg
          "Native_run: pause/resume needs the deterministic Every_polls beat (--beat polls:N) — \
           wall-clock heartbeats cannot be replayed byte-identically");
    if n > 1 then
      invalid_arg
        "Native_run: pause/resume needs workers=1 — a multi-worker native replay is not \
         byte-reproducible; use workers=1 or --backend sim"
  end;
  let program = compiled.Pipeline.source in
  let env = program.Ir.Program.make_env () in
  let capture = Obs.Trace.Sink.enabled request.Run_request.trace in
  let gate, observer = Interp.gated_observer request in
  let b = Domains_backend.create ~workers:n ~trace:observer ~capture in
  (* Injected-fault accounting: the injector's own sink counts each kind
     into atomics (the untraced chaos path has no mutex to rely on) and
     forwards the event into the linearized trace. Injector draws happen
     outside [critical] sections (leaf polls, try_steal's veto hook, the
     post-critical wake path), so taking [critical] here cannot deadlock. *)
  let f_drops = Atomic.make 0 in
  let f_steals = Atomic.make 0 in
  let f_stalls = Atomic.make 0 in
  let f_stall_polls = Atomic.make 0 in
  let f_wakeups = Atomic.make 0 in
  (match request.Run_request.fault_plan with
  | Some plan when not (Sim.Fault_plan.is_zero plan) ->
      let sink =
        Obs.Trace.Sink.fn (fun ~time:_ ~worker:_ ev ->
            (match ev with
            | Obs.Trace.Fault_injected f -> (
                match f with
                | Obs.Trace.Beat_dropped -> Atomic.incr f_drops
                | Obs.Trace.Steal_failed -> Atomic.incr f_steals
                | Obs.Trace.Stall p ->
                    Atomic.incr f_stalls;
                    ignore (Atomic.fetch_and_add f_stall_polls p)
                | Obs.Trace.Wakeup_delayed -> Atomic.incr f_wakeups
                | Obs.Trace.Beat_delayed _ -> ())
            | _ -> ());
            Domains_backend.critical b (fun () -> Domains_backend.emit b ev))
      in
      Domains_backend.set_injector b (Sim.Fault_injector.create plan ~num_workers:n ~trace:sink ())
  | Some _ | None -> ());
  let hooks =
    {
      Hooks.cfg;
      b;
      beat;
      slots = Array.init n (fun w -> Domains_backend.make_slot ~worker:w);
      capture;
      chaos = Sim.Fault_injector.active (Domains_backend.injector b);
      downgrades = Atomic.make 0;
      promo_disabled = Atomic.make false;
      next_mark = Stdlib.max_int;
      on_mark = (fun () -> ());
    }
  in
  let core = I.C.create b in
  let st = I.create ~cfg ~hooks ~core ~capture ~request compiled in
  (match beat with
  | Every_polls n -> Array.iter (fun (s : Domains_backend.slot) -> s.poll_beat_at <- n) hooks.slots
  | Wall_us _ -> ());
  let sum f = Array.fold_left (fun acc (s : Domains_backend.slot) -> acc + f s) 0 hooks.slots in
  (* Observational state at a pause boundary. Every field is a pure
     function of the single-worker deterministic dispatch history, so an
     uninterrupted replay reaching the same boundary re-derives the same
     bytes — that is the resume-divergence check. *)
  let checkpoint_now ~at_cycle (episode, granted, regrants) =
    {
      Sim.Checkpoint_state.at_cycle;
      episode;
      rng_state = Int64.of_int (Domains_backend.rng_word b ~worker:0);
      next_task_id = I.C.next_task_id core;
      work_cycles = sum (fun s -> s.work);
      promotions_used = Atomic.get st.I.promotions;
      granted;
      regrants;
      clocks = Array.map (fun (s : Domains_backend.slot) -> s.progress) hooks.slots;
      deques = Array.init n (fun w -> Domains_backend.deque_task_ids b ~worker:w);
      slices = Interp.checkpoint_slices st.I.live_slices;
    }
  in
  (* Boundary agenda: an ascending list of (progress, action) marks that
     [consume] fires synchronously on worker 0 — regrant replays, the
     resume byte-verify, and the pause point itself. *)
  let marks = ref [] in
  let arm ms =
    marks := ms;
    hooks.next_mark <- (match ms with [] -> Stdlib.max_int | (p, _) :: _ -> p)
  in
  hooks.on_mark <-
    (fun () ->
      match !marks with
      | [] -> hooks.next_mark <- Stdlib.max_int
      | (_, act) :: rest ->
          arm rest;
          act ());
  let applied = ref (-1) in
  (match request.Run_request.resume_from with
  | None -> (
      match request.Run_request.pause_at with
      | Some p -> arm [ (p, fun () -> raise Pause_now) ]
      | None -> ())
  | Some ck ->
      let verify () =
        let derived =
          checkpoint_now ~at_cycle:ck.Sim.Checkpoint_state.at_cycle
            Sim.Checkpoint_state.(ck.episode, ck.granted, ck.regrants)
        in
        match I.resume_boundary st request ck ~derived with
        | Error reason -> raise (Resume_diverged reason)
        | Ok g -> (
            (* The replay reproduced the paused state exactly: open the
               gate and run for real. *)
            gate := true;
            applied := g;
            match request.Run_request.pause_at with
            | Some p when p > ck.Sim.Checkpoint_state.at_cycle ->
                arm [ (p, fun () -> raise Pause_now) ]
            | Some _ | None -> ())
      in
      arm
        (List.map
           (fun (cyc, g) -> (cyc, fun () -> if g >= 0 then Atomic.set st.I.promo_left g))
           ck.Sim.Checkpoint_state.regrants
        @ [ (ck.Sim.Checkpoint_state.at_cycle, verify) ]));
  (* Watchdog rung 2, sampled on the monitor domain: a busy worker whose
     progress counter has not moved for [stuck_after] consecutive samples
     (one sample every [sample_every] park-timeout periods) is considered
     stuck; further promotions are disabled so no new tasks land behind
     it, and the run degrades to finishing what is already split. *)
  let tick =
    if not hooks.chaos then fun () -> ()
    else begin
      let sample_every = 16 and stuck_after = 8 in
      let last = Array.make n (-1) in
      let stuck = Array.make n 0 in
      let ticks = ref 0 in
      fun () ->
        incr ticks;
        if !ticks mod sample_every = 0 then
          for w = 0 to n - 1 do
            let p = hooks.slots.(w).progress in
            if Domains_backend.is_busy b ~worker:w && p = last.(w) then begin
              stuck.(w) <- stuck.(w) + 1;
              if stuck.(w) = stuck_after && not (Atomic.get hooks.promo_disabled) then begin
                Atomic.set hooks.promo_disabled true;
                Atomic.incr hooks.downgrades;
                Hooks.emit hooks Obs.Trace.Mechanism_downgrade
              end
            end
            else stuck.(w) <- 0;
            last.(w) <- p
          done
    end
  in
  Domains_backend.register ~worker:0;
  Domains_backend.start_monitor ~tick
    ?beat:(match beat with Wall_us us -> Some (us, hooks.slots) | Every_polls _ -> None)
    b;
  let domains =
    List.init (n - 1) (fun i ->
        Domain.spawn (fun () ->
            Domains_backend.register ~worker:(i + 1);
            I.C.scavenge core))
  in
  let t_start = Unix.gettimeofday () in
  let termination = ref Sim.Run_result.Finished in
  (try
     Fun.protect
       ~finally:(fun () ->
         I.C.set_finished core;
         (* Wake every parked scavenger so it observes the finished flag;
            the monitor keeps broadcasting until after the joins, so a
            worker that parks in the race window is freed within one
            timeout. Only then is the monitor stopped. *)
         Domains_backend.wake_all b;
         List.iter Domain.join domains;
         Domains_backend.stop_monitor b)
       (fun () ->
         (* The driver itself counts as task depth so inline tasks do not
            clear worker 0's busy flag when they finish; busy is what the
            rung-2 watchdog samples. *)
         (I.C.depth core).(0) <- 1;
         Domains_backend.set_busy b ~worker:0 ~busy:true;
         (* Driver intervals cover only the serial segments between nests —
            while a nest runs, worker 0 records its own task intervals, and
            one interval spanning the whole run would overlap them. *)
         let mark = ref (Domains_backend.now b) in
         let driver_segment_ends () =
           if capture && Domains_backend.now b > !mark then
             Hooks.emit hooks (Obs.Trace.Interval { t0 = !mark; kind = "driver" })
         in
         let cpu =
           {
             Ir.Program.exec =
               (fun nest ->
                 driver_segment_ends ();
                 I.exec_nest st compiled env nest;
                 mark := Domains_backend.now b);
             advance = Hooks.add_work hooks.slots.(0);
           }
         in
         program.Ir.Program.driver env cpu;
         driver_segment_ends ();
         (I.C.depth core).(0) <- 0;
         Domains_backend.set_busy b ~worker:0 ~busy:false)
   with
  | Pause_now ->
      (* The unwind skipped the live-registry pops and mutated nothing the
         checkpoint reads, so the boundary state is captured here intact. *)
      termination :=
        Sim.Run_result.Paused
          (checkpoint_now
             ~at_cycle:(Option.get request.Run_request.pause_at)
             (Interp.next_episode request ~applied:!applied))
  | Resume_diverged reason -> termination := Sim.Run_result.Guard_aborted ("resume-divergence: " ^ reason));
  (match (request.Run_request.resume_from, !termination) with
  | Some ck, Sim.Run_result.Finished when not !gate ->
      termination :=
        Sim.Run_result.Guard_aborted
          (Printf.sprintf "resume-divergence: run finished before the boundary at cycle %d"
             ck.Sim.Checkpoint_state.at_cycle)
  | _ -> ());
  let elapsed_us = int_of_float ((Unix.gettimeofday () -. t_start) *. 1e6) in
  let metrics = Sim.Metrics.create () in
  metrics.Sim.Metrics.work_cycles <- sum (fun s -> s.work);
  (* Beat counters, each field with one writer (see [Domains_backend.slot]);
     read after every domain, the monitor included, has been joined.
     [Every_polls] beats are generated where they are detected. *)
  metrics.Sim.Metrics.polls <- sum (fun s -> s.polls);
  metrics.Sim.Metrics.heartbeats_detected <- sum (fun s -> s.detected);
  (match beat with
  | Wall_us _ ->
      metrics.Sim.Metrics.heartbeats_generated <- sum (fun s -> s.generated);
      metrics.Sim.Metrics.heartbeats_missed <- sum (fun s -> s.missed)
  | Every_polls _ ->
      metrics.Sim.Metrics.heartbeats_generated <- metrics.Sim.Metrics.heartbeats_detected);
  metrics.Sim.Metrics.promotions <- Atomic.get st.I.promotions;
  metrics.Sim.Metrics.faults_beats_dropped <- Atomic.get f_drops;
  metrics.Sim.Metrics.faults_steals_failed <- Atomic.get f_steals;
  metrics.Sim.Metrics.faults_stalls <- Atomic.get f_stalls;
  (* stall windows are poll-counted natively; the cycle counter carries
     the poll total so faults_injected and reports stay meaningful *)
  metrics.Sim.Metrics.faults_stall_cycles <- Atomic.get f_stall_polls;
  metrics.Sim.Metrics.faults_wakeups_delayed <- Atomic.get f_wakeups;
  metrics.Sim.Metrics.downgrades <- Atomic.get hooks.downgrades;
  {
    (* makespan is wall microseconds here, not virtual cycles — comparable
       only between native runs. *)
    Sim.Run_result.makespan = elapsed_us;
    metrics;
    fingerprint = program.Ir.Program.fingerprint env;
    work_cycles = metrics.Sim.Metrics.work_cycles;
    dnf = false;
    termination = !termination;
    trace = Obs.Trace.Sink.captured request.Run_request.trace;
    sanitizer = None;
  }

let run ?request ?beat cfg program =
  run_program ?request ?beat cfg (Pipeline.compile_program ~chunk:cfg.Rt_config.chunk program)
