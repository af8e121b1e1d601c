(** The heartbeat runtime (Sec. 5) running a compiled program on the
    simulated multicore machine.

    Worker 0 executes the program's serial driver; invoking a nest runs its
    root loop-slice task. All workers share per-worker task deques under a
    work-stealing discipline with the clone optimization: a promotion pushes
    the two loop-slice halves and the leftover task onto the promoting
    worker's deque, runs them itself if nobody steals them (fast path, no
    synchronization cost), and pays the slow-path synchronization only for
    stolen tasks.

    A promotion (outer-loop-first, Sec. 2) picks the outermost loop of the
    current context chain with at least one remaining iteration, consumes
    its remaining iterations from the running task, splits them into two
    slice tasks, and materializes the leftover task from the leftover table.
    Reductions get fresh locals per slice half; each finishing half
    combines into the parent's locals in completion order, before the
    join completes (spawn order would move pinned fingerprints and
    makespans). The interpreter is
    {!Interp.Make}, shared with the native domains runner. *)

exception Did_not_finish
(** Raised internally when the run exceeds [max_cycles]; reported as
    [dnf = true] in the result. *)

exception Internal_error of string
(** A runtime invariant broke (a bug, not a user error). *)

(** Testing hook: a deliberately plantable scheduler bug, armed by the
    sanitizer tests and the fuzzer's forced-failure mode so the invariant
    checker can be shown to catch real scheduling mistakes. Never armed in
    normal operation. *)
type seeded_bug = Sim_backend.seeded_bug =
  | Duplicate_leftover
      (** the promotion handler pushes the leftover task twice, so its
          iterations execute twice (violates work conservation) *)
  | Lose_stolen_task
      (** one successfully stolen task is dropped on the floor (violates
          deque discipline / loses iterations; typically deadlocks) *)
  | Promote_innermost
      (** the promotion handler inverts the configured policy's direction
          (violates outer-loop-first) *)

val set_seeded_bug : seeded_bug option -> unit
(** Arm (or with [None] disarm) a seeded bug for subsequent runs. Global,
    read once per {!run_program} call. *)

val run_program : ?request:Run_request.t -> Rt_config.t -> 'e Pipeline.program -> Sim.Run_result.t
(** Run one compiled program. The optional {!Run_request.t} carries the
    per-run knobs — DNF cap, trial watchdogs, fault plan, trace sink; the
    default requests a plain, unobserved, uncapped run. Every scheduler
    action is emitted exactly once as an {!Obs.Trace.event} into the
    request's sink (teed with the metrics counting sink); emission never
    perturbs virtual time, so results are independent of the sink. *)

val run : ?request:Run_request.t -> Rt_config.t -> 'e Ir.Program.t -> Sim.Run_result.t
(** Compile (with the chunk mode from the config) and run.
    @deprecated New call sites should go through the backend-agnostic
    facade, [Sched_run.run (Hbc cfg)] — it dispatches between this
    simulator instantiation and the native domains one. *)
