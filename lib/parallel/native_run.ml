(* The compiled-nest interpreter on real OCaml 5 domains.

   This is the executor's interpreter minus the virtual-time machinery:
   no cost charging, no membus — real time is simply spent. Everything
   the paper argues about is shared with the simulator through
   [lib/sched]: the promotion choice ([Sched.Policy]), the
   adaptive-chunking rule ([Sched.Adaptive_chunking]), the leftover walk
   ([Sched.Leftover_walk]) and the whole deque/steal/join discipline
   ([Sched.Core.Make (Domains_backend)]). Traced runs emit the same
   capture-gated [Obs.Trace] events at the same operation boundaries as
   the simulator, linearized by the backend's mutex, so the sanitizer
   validates native streams with its full invariant set; fingerprints
   cross-check against simulator runs of the same program.

   Cheap polls. Under [Wall_us] the monitor domain is the beat source —
   the paper's ping thread (§2/§5): it reads the clock once per wake and
   sets each busy worker's beat flag, so a poll is a read of the worker's
   own flag, never a clock read. Everything a worker writes per poll (the
   flag, beat and poll counters, progress, body work, chaos stall and
   watchdog state) lives in one padded record per worker
   ([Domains_backend.slot]) that the task state carries, so polls touch
   no shared cache line and no domain-local storage. The interpreter
   allocates nothing per iteration, poll or leaf invocation: the loops
   are recursive functions that return the work they did, and
   adaptive-chunking state is an array indexed [worker][nest][ord] built
   at run start.

   Fault tolerance (the robustness layer, all strictly opt-in):

   - Chaos: a backend-portable [Sim.Fault_plan] attaches a
     [Sim.Fault_injector] to the backend. Steal refusals and wakeup
     suppressions are drawn inside the backend; dropped beats and
     poll-counted stalls are drawn here at beat boundaries. Decisions
     come from per-worker seeded streams, so the decision sequence is
     reproducible from (plan seed, P). Simulator-only kinds (cycle
     jitter, cycle-counted stalls) are refused with a precise error.

   - Watchdog ladder: rung 1 detects a beat-starved worker
     ([watchdog_k] consecutive suppressed beats) and downgrades it to
     polling fallback — beats always deliver from then on; rung 2 runs
     on the monitor domain, samples per-worker progress counters, and
     disables further promotions when a busy worker makes no progress
     for a bounded window. Both rungs emit [Mechanism_downgrade].

   - Pause/checkpoint-resume: under the deterministic [Every_polls]
     beat with one worker, a run can pause at a scheduling-point
     boundary, serialize a [Sim.Checkpoint_state], and resume by
     replaying from scratch with the trace gated until the boundary,
     where the re-derived state must be byte-identical (the same
     replay-with-verify scheme the simulator executor uses — fibers and
     stacks cannot be serialized, determinism can). *)

module Compiled = Hbc_core.Compiled
module Rt_config = Hbc_core.Rt_config
module Pipeline = Hbc_core.Pipeline
module Run_request = Hbc_core.Run_request
module C = Sched.Core.Make (Domains_backend)

exception Internal_error = Hbc_core.Executor.Internal_error

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

type status = Done | Promoted of int

type seg_result = Seg_ok | Seg_promoted of int

(* A task never migrates between workers mid-run (it executes on the
   domain that claimed it), so its state carries that worker's record and
   the hot path needs no domain-local lookup. *)
type task_state = {
  residual : int array;
  mutable no_promote : bool;
  mutable forbidden : int;
  slot : Domains_backend.slot;
}

(* Live-slice registry for checkpoint capture, armed only when the request
   pauses or resumes (same scheme as the executor's): one LIFO stack per
   worker holds the DOALL slice activations currently on that worker's
   stack; the checkpoint reads each context's remaining range in place at
   the pause boundary. Unarmed runs skip it entirely. *)
type live_slice = { ck_key : int; ck_nest : string; ck_ctx : Ir.Ctx.t }

type run_state = {
  cfg : Rt_config.t;
  b : Domains_backend.t;
  core : C.t;
  beat : beat_source;
  slots : Domains_backend.slot array;
      (* per-worker padded records: beat flag and counters, progress (the
         scheduling-point counter every beat check bumps: the pause-boundary
         clock at P=1 and the liveness signal the monitor watchdog samples),
         body work, chaos stall/watchdog state *)
  ac : Sched.Adaptive_chunking.t array array array;
      (* [worker][nest_id][ord], built at run start — worker-private *)
  promotions : int Atomic.t;
  promo_left : int Atomic.t;  (* metered promotions; max_int = unmetered *)
  promo_disabled : bool Atomic.t;  (* watchdog rung 2: no further splits *)
  capture : bool;
  chaos : bool;  (* an active fault injector is attached to the backend *)
  downgrades : int Atomic.t;
  live_slices : live_slice list array option;
  mutable next_mark : int;
      (* progress value of the next pause/regrant/verify boundary on
         worker 0; max_int when none is armed (the common case) *)
  mutable on_mark : unit -> unit;
  mutable exec_epoch : int;  (* driver-only mutation, between nests *)
}

type 'e nest_handle = { st : run_state; nest : 'e Compiled.nest; nest_id : int; env : 'e }

let emit (st : run_state) ev = Domains_backend.critical st.b (fun () -> Domains_backend.emit st.b ev)

let add_work (s : Domains_backend.slot) c = if c > 0 then s.work <- s.work + c

(* A beat reached [s]'s boundary under chaos on a non-downgraded worker:
   decide delivery. An injected stall window or a drop suppresses it;
   [watchdog_k] consecutive suppressions trip rung 1 — from then on the
   worker polls for beats directly (downgraded), so starvation is bounded
   by [watchdog_k] beat periods. *)
let chaos_beat st (s : Domains_backend.slot) =
  let inj = Domains_backend.injector st.b in
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
    if s.since_beat >= st.cfg.Rt_config.watchdog_k then begin
      s.downgraded <- true;
      s.stall_left <- 0;
      Atomic.incr st.downgrades;
      emit st Obs.Trace.Mechanism_downgrade;
      (* the fallback poll delivers the beat that tripped the watchdog *)
      true
    end
    else false
  end

(* One heartbeat check on this task's worker. A leaf poll counts
   ([count_poll]); a non-leaf latch only reads the flag, exactly as in the
   simulator. Under [Wall_us] the check reads and clears the flag the
   monitor sets — no clock read; under [Every_polls] it compares the poll
   count with the next beat's. Every call bumps the progress counter; a
   beat seen here counts detected even when chaos then suppresses it (the
   fault counters record that). Chaos and pause marks cost nothing when
   unarmed thanks to the [chaos] bool and the max_int sentinel. *)
let consume (st : run_state) (ts : task_state) ~count_poll =
  let s = ts.slot in
  s.progress <- s.progress + 1;
  if count_poll then begin
    s.polls <- s.polls + 1;
    if st.chaos && s.stall_left > 0 then s.stall_left <- s.stall_left - 1
  end;
  if s.progress = st.next_mark then st.on_mark ();
  let boundary =
    match st.beat with
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
    (not st.chaos) || s.downgraded || chaos_beat st s
  end
  else false

(* Spend one metered promotion, failing when racing workers drained the
   meter first; unmetered runs never touch the counter. *)
let spend_promotion st =
  if Atomic.get st.promo_left = Stdlib.max_int then true
  else begin
    let rec go () =
      let v = Atomic.get st.promo_left in
      v > 0 && (Atomic.compare_and_set st.promo_left v (v - 1) || go ())
    in
    go ()
  end

(* The promotion gate shared by leaf beats and general-loop latches: the
   rung-2 watchdog can veto all further splits (the run then degrades to
   serial execution of what remains, which is always correct). *)
let may_promote st (ts : task_state) =
  st.cfg.Rt_config.promotion && (not ts.no_promote)
  && Atomic.get st.promo_left > 0
  && not (Atomic.get st.promo_disabled)

(* Called where the task starts running, so [slot] is its worker's. *)
let fresh_task_state c =
  {
    residual = Array.make (Ir.Nesting_tree.size c.nest.Compiled.tree) 0;
    no_promote = false;
    forbidden = -1;
    slot = c.st.slots.(Domains_backend.worker_id c.st.b);
  }

(* Sequential execution, allocation-free: each function returns the body
   work it performed. [serial_range] runs the rest of [ctx]'s slice,
   [exec_segs] one iteration's segments, [serial_loop] a whole non-DOALL
   subtree. *)
let rec serial_range c (ctxs : Ir.Ctx.set) segs (ctx : Ir.Ctx.t) acc =
  if ctx.Ir.Ctx.lo >= ctx.Ir.Ctx.hi then acc
  else begin
    let acc = exec_segs c ctxs segs ctx.Ir.Ctx.lo acc in
    ctx.Ir.Ctx.lo <- ctx.Ir.Ctx.lo + 1;
    serial_range c ctxs segs ctx acc
  end

and exec_segs c ctxs segs iter acc =
  match segs with
  | [] -> acc
  | Ir.Nest.Stmt s :: rest -> exec_segs c ctxs rest iter (acc + s.Ir.Nest.exec c.env ctxs iter)
  | Ir.Nest.Nested child :: rest -> exec_segs c ctxs rest iter (acc + serial_loop c ctxs child)

and serial_loop c ctxs (l : _ Ir.Nest.loop) =
  let ctx = ctxs.(l.Ir.Nest.ordinal) in
  let lo, hi = l.Ir.Nest.bounds c.env ctxs in
  Ir.Ctx.set_slice ctx ~lo ~hi;
  (match l.Ir.Nest.init with Some f -> f c.env ctx.Ir.Ctx.locals | None -> ());
  serial_range c ctxs l.Ir.Nest.body ctx 0

(* Iterations [k, stop) of a leaf chunk; the context tracks the running
   iteration so the latch and leftover tasks see it. *)
let rec leaf_chunk c ctxs segs (ctx : Ir.Ctx.t) k stop acc =
  if k >= stop then acc
  else begin
    ctx.Ir.Ctx.lo <- k;
    leaf_chunk c ctxs segs ctx (k + 1) stop (exec_segs c ctxs segs k acc)
  end

(* Same invocation-key scheme as the executor (content hash of the
   ancestor iteration vector + nest id + execution epoch), so spawned
   halves and leftover continuations of one invocation land on one key
   and the sanitizer's tiling check works on native traces unchanged. *)
let slice_key c (ctxs : Ir.Ctx.set) ord =
  let h = ref (((c.nest_id + 1) * 8191) + c.st.exec_epoch) in
  List.iter
    (fun o -> if o <> ord then h := (!h * 1000003) + ctxs.(o).Ir.Ctx.lo + 1)
    c.nest.Compiled.infos.(ord).Compiled.chain_from_root;
  ((!h * 1000003) + ord) land max_int

let emit_slice_enter c ctxs ord =
  let st = c.st in
  if st.capture then begin
    let ctx = ctxs.(ord) in
    emit st
      (Obs.Trace.Slice_enter
         {
           nest = c.nest_id;
           ord;
           key = slice_key c ctxs ord;
           lo = ctx.Ir.Ctx.lo;
           hi = ctx.Ir.Ctx.hi;
         })
  end

let emit_iter_exec c ctxs ord ~lo ~hi =
  let st = c.st in
  if st.capture && hi > lo then
    emit st (Obs.Trace.Iter_exec { nest = c.nest_id; ord; key = slice_key c ctxs ord; lo; hi })

let rec run_slice : 'e. 'e nest_handle -> task_state -> Ir.Ctx.set -> int -> status =
 fun c ts ctxs ord ->
  match c.st.live_slices with
  | Some live when c.nest.Compiled.infos.(ord).Compiled.doall ->
      (* Slices never migrate workers mid-run (a task executes on the
         worker that started it), so registration and removal hit the
         same stack. A [Pause_now] unwind skips the removal on purpose:
         the checkpoint reads the still-registered activations. *)
      let w = ts.slot.index in
      live.(w) <-
        {
          ck_key = slice_key c ctxs ord;
          ck_nest = Printf.sprintf "%s#%d" c.nest.Compiled.source_name ord;
          ck_ctx = ctxs.(ord);
        }
        :: live.(w);
      let r = run_slice_body c ts ctxs ord in
      (match live.(w) with _ :: rest -> live.(w) <- rest | [] -> ());
      r
  | _ -> run_slice_body c ts ctxs ord

and run_slice_body : 'e. 'e nest_handle -> task_state -> Ir.Ctx.set -> int -> status =
 fun c ts ctxs ord ->
  let info = c.nest.Compiled.infos.(ord) in
  if not info.Compiled.doall then begin
    (* Bounds were set by the caller; run the subtree serially. *)
    add_work ts.slot (serial_range c ctxs info.Compiled.loop.Ir.Nest.body ctxs.(ord) 0);
    Done
  end
  else if info.Compiled.is_leaf then begin
    if not c.st.cfg.Rt_config.chunk_transferring then ts.residual.(ord) <- 0;
    run_leaf c ts ctxs info c.st.ac.(ts.slot.index).(c.nest_id).(ord)
  end
  else run_general c ts ctxs info

(* The leaf loop, one chunk per step. [a] is this worker's chunking state
   for the leaf; only [Adaptive] leaves read or update it. *)
and run_leaf :
    'e.
    'e nest_handle ->
    task_state ->
    Ir.Ctx.set ->
    'e Compiled.loop_info ->
    Sched.Adaptive_chunking.t ->
    status =
 fun c ts ctxs info a ->
  let st = c.st in
  let ord = info.Compiled.ordinal in
  let ctx = ctxs.(ord) in
  if ctx.Ir.Ctx.lo >= ctx.Ir.Ctx.hi then Done
  else begin
    let adaptive = match info.Compiled.chunk with Compiled.Adaptive -> true | _ -> false in
    let s =
      match info.Compiled.chunk with
      | Compiled.No_chunking -> 1
      | Compiled.Static s -> s
      | Compiled.Adaptive -> Sched.Adaptive_chunking.chunk_size a
    in
    if ts.residual.(ord) <= 0 then ts.residual.(ord) <- s;
    let start = ctx.Ir.Ctx.lo in
    let todo = Stdlib.min ts.residual.(ord) (ctx.Ir.Ctx.hi - start) in
    let work = leaf_chunk c ctxs info.Compiled.loop.Ir.Nest.body ctx start (start + todo) 0 in
    emit_iter_exec c ctxs ord ~lo:start ~hi:(start + todo);
    add_work ts.slot work;
    (* ctx.lo is the last executed iteration: the latch sees it, the
       leftover task resumes at lo + 1. *)
    ts.residual.(ord) <- ts.residual.(ord) - todo;
    (* A full chunk ends in a poll. A partial one ends the invocation: the
       residual transfers to the next invocation of this leaf in this
       task. *)
    let beat =
      ts.residual.(ord) = 0
      && begin
           if adaptive then Sched.Adaptive_chunking.on_poll a;
           consume st ts ~count_poll:true || st.cfg.Rt_config.force_promotion
         end
    in
    match if beat then leaf_beat c ts ctxs info a ~adaptive else None with
    | Some r -> r
    | None ->
        ctx.Ir.Ctx.lo <- ctx.Ir.Ctx.lo + 1;
        run_leaf c ts ctxs info a
  end

(* A beat seen at a leaf poll: close the chunking interval, then try to
   promote. [None] means the leaf keeps running. *)
and leaf_beat :
    'e.
    'e nest_handle ->
    task_state ->
    Ir.Ctx.set ->
    'e Compiled.loop_info ->
    Sched.Adaptive_chunking.t ->
    adaptive:bool ->
    status option =
 fun c ts ctxs info a ~adaptive ->
  let st = c.st in
  if adaptive then begin
    if st.capture then begin
      match Sched.Adaptive_chunking.on_heartbeat_full a with
      | Some d ->
          emit st
            (Obs.Trace.Chunk_update
               {
                 key = ctxs.(c.nest.Compiled.root).Ir.Ctx.lo;
                 chunk = d.Sched.Adaptive_chunking.new_chunk;
               });
          emit st
            (Obs.Trace.Chunk_decision
               {
                 key = slice_key c ctxs info.Compiled.ordinal;
                 old_chunk = d.Sched.Adaptive_chunking.old_chunk;
                 min_polls = d.Sched.Adaptive_chunking.min_polls;
                 chunk = d.Sched.Adaptive_chunking.new_chunk;
               })
      | None -> ()
    end
    else ignore (Sched.Adaptive_chunking.on_heartbeat a)
  end;
  if may_promote st ts then promote c ts ctxs info else None

and run_general :
    'e. 'e nest_handle -> task_state -> Ir.Ctx.set -> 'e Compiled.loop_info -> status =
 fun c ts ctxs info ->
  let st = c.st in
  let ord = info.Compiled.ordinal in
  let ctx = ctxs.(ord) in
  if ctx.Ir.Ctx.lo >= ctx.Ir.Ctx.hi then Done
  else begin
    let iter = ctx.Ir.Ctx.lo in
    match run_segments c ts ctxs info.Compiled.loop.Ir.Nest.body iter with
    | Seg_promoted j -> if j = ord then Done else Promoted j
    | Seg_ok -> (
        (* Emitted before the latch so a promotion splitting this loop
           cannot lose the completed iteration. *)
        emit_iter_exec c ctxs ord ~lo:iter ~hi:(iter + 1);
        let beat = consume st ts ~count_poll:false || st.cfg.Rt_config.force_promotion in
        match if beat && may_promote st ts then promote c ts ctxs info else None with
        | Some r -> r
        | None ->
            ctx.Ir.Ctx.lo <- iter + 1;
            run_general c ts ctxs info)
  end

and run_segments :
    'e. 'e nest_handle -> task_state -> Ir.Ctx.set -> 'e Ir.Nest.segment list -> int -> seg_result
    =
 fun c ts ctxs segs iter ->
  match segs with
  | [] -> Seg_ok
  | Ir.Nest.Stmt s :: rest ->
      add_work ts.slot (s.Ir.Nest.exec c.env ctxs iter);
      run_segments c ts ctxs rest iter
  | Ir.Nest.Nested child :: rest ->
      let o = child.Ir.Nest.ordinal in
      if c.nest.Compiled.infos.(o).Compiled.doall then begin
        let lo, hi = child.Ir.Nest.bounds c.env ctxs in
        Ir.Ctx.set_slice ctxs.(o) ~lo ~hi;
        (match child.Ir.Nest.init with Some f -> f c.env ctxs.(o).Ir.Ctx.locals | None -> ());
        emit_slice_enter c ctxs o;
        match run_slice c ts ctxs o with
        | Done -> run_segments c ts ctxs rest iter
        | Promoted j -> Seg_promoted j
      end
      else begin
        add_work ts.slot (serial_loop c ctxs child);
        run_segments c ts ctxs rest iter
      end

(* The promotion handler: policy-chosen split of the current context
   chain, task creation through the shared core, clone-optimized join.
   One native-only difference from the executor: reduction halves are
   combined on the owner after the join (in spawn order) instead of
   inside each spawned task — two tasks mutating the parent's locals
   concurrently would race; the join's acquire publishes their writes. *)
and promote :
    'e. 'e nest_handle -> task_state -> Ir.Ctx.set -> 'e Compiled.loop_info -> status option =
 fun c ts ctxs cur ->
  let st = c.st in
  let ts_forbidden = ts.forbidden in
  let statically_splittable o =
    c.nest.Compiled.infos.(o).Compiled.doall
    && (o = cur.Compiled.ordinal
       || Compiled.find_leftover c.nest ~li:cur.Compiled.ordinal ~lj:o <> None)
  in
  let splittable o = statically_splittable o && Ir.Ctx.remaining ctxs.(o) >= 1 in
  let chain = Sched.Policy.owned_suffix ~forbidden:ts_forbidden cur.Compiled.chain_from_root in
  match Sched.Policy.choose_target ~policy:st.cfg.Rt_config.policy ~splittable chain with
  | None -> None
  | Some tgt ->
      if not (spend_promotion st) then None
      else begin
        Atomic.incr st.promotions;
        if st.capture then
          emit st
            (Obs.Trace.Promote_choice
               {
                 cur = cur.Compiled.ordinal;
                 tgt;
                 chain =
                   List.map
                     (fun o -> (o, statically_splittable o, Ir.Ctx.remaining ctxs.(o)))
                     chain;
               });
        let tinfo = c.nest.Compiled.infos.(tgt) in
        emit st (Obs.Trace.promotion tinfo.Compiled.depth);
        let tctx = ctxs.(tgt) in
        let rem_lo = tctx.Ir.Ctx.lo + 1 and rem_hi = tctx.Ir.Ctx.hi in
        tctx.Ir.Ctx.hi <- tctx.Ir.Ctx.lo + 1;
        let mid = Sched.Policy.split_point ~lo:rem_lo ~hi:rem_hi in
        let join = C.new_join st.core in
        let reduction = tinfo.Compiled.loop.Ir.Nest.reduction in
        let spawned = ref [] in
        let spawn_slice lo hi =
          if hi > lo then begin
            let nctxs = Ir.Ctx.copy_set ctxs in
            Ir.Ctx.refresh_subtree nctxs ~ordinals:tinfo.Compiled.subtree
              ~specs:c.nest.Compiled.specs;
            Ir.Ctx.set_slice nctxs.(tgt) ~lo ~hi;
            (match tinfo.Compiled.loop.Ir.Nest.init with
            | Some f -> f c.env nctxs.(tgt).Ir.Ctx.locals
            | None -> ());
            spawned := nctxs :: !spawned;
            C.add_pending join;
            C.push_task st.core
              (C.mk_task st.core (fun () ->
                   let ts' = fresh_task_state c in
                   ts'.forbidden <- Option.value ~default:(-1) tinfo.Compiled.parent;
                   (match run_slice c ts' nctxs tgt with Done | Promoted _ -> ());
                   C.finish_join st.core join))
          end
        in
        spawn_slice rem_lo mid;
        spawn_slice mid rem_hi;
        (if tgt <> cur.Compiled.ordinal then
           match Compiled.find_leftover c.nest ~li:cur.Compiled.ordinal ~lj:tgt with
           | None ->
               raise
                 (Internal_error
                    (Printf.sprintf "missing leftover task for pair (%d, %d)" cur.Compiled.ordinal
                       tgt))
           | Some leftover -> (
               let lctxs = Ir.Ctx.copy_set ctxs in
               match st.cfg.Rt_config.leftover with
               | Rt_config.Spawn ->
                   C.add_pending join;
                   C.push_task st.core
                     (C.mk_task st.core (fun () ->
                          run_leftover c ~no_promote:false lctxs leftover;
                          C.finish_join st.core join))
               | Rt_config.Inline -> run_leftover c ~no_promote:false lctxs leftover));
        C.join_wait st.core join;
        (match reduction with
        | Some combine ->
            List.iter
              (fun nctxs -> combine tctx.Ir.Ctx.locals nctxs.(tgt).Ir.Ctx.locals)
              (List.rev !spawned)
        | None -> ());
        Some (if tgt = cur.Compiled.ordinal then Done else Promoted tgt)
      end

and run_leftover : 'e. 'e nest_handle -> no_promote:bool -> Ir.Ctx.set -> Compiled.leftover -> unit
    =
 fun c ~no_promote ctxs leftover ->
  let st = c.st in
  if st.capture then emit st Obs.Trace.Leftover_run;
  let ts = fresh_task_state c in
  ts.no_promote <- no_promote;
  ts.forbidden <- leftover.Compiled.lj;
  let steps = Array.of_list leftover.Compiled.steps in
  let is_call = function
    | Compiled.Call_slice o -> Some o
    | Compiled.Increase_iv _ | Compiled.Tail_work _ -> None
  in
  let exec step =
    match step with
    | Compiled.Increase_iv o ->
        ctxs.(o).Ir.Ctx.lo <- ctxs.(o).Ir.Ctx.lo + 1;
        Sched.Leftover_walk.Next
    | Compiled.Call_slice o -> (
        match run_slice c ts ctxs o with
        | Done -> Sched.Leftover_walk.Next
        | Promoted j when j = o -> Sched.Leftover_walk.Next
        | Promoted j -> Sched.Leftover_walk.Skip_past j)
    | Compiled.Tail_work { of_; after } -> (
        let info = c.nest.Compiled.infos.(of_) in
        let segs = Compiled.tail_of info ~after in
        match run_segments c ts ctxs segs ctxs.(of_).Ir.Ctx.lo with
        | Seg_ok ->
            emit_iter_exec c ctxs of_ ~lo:ctxs.(of_).Ir.Ctx.lo ~hi:(ctxs.(of_).Ir.Ctx.lo + 1);
            Sched.Leftover_walk.Next
        | Seg_promoted j -> Sched.Leftover_walk.Skip_past j)
  in
  try Sched.Leftover_walk.run ~steps ~is_call ~exec
  with Sched.Leftover_walk.Missing_call j ->
    raise (Internal_error (Printf.sprintf "leftover skip: no Call_slice %d" j))

let exec_nest st (compiled : 'e Pipeline.program) (env : 'e) nest =
  let rec find i = function
    | [] -> raise (Internal_error "exec of a nest the program did not declare")
    | (src, cn) :: rest -> if src == nest then (i, cn) else find (i + 1) rest
  in
  let nest_id, cn = find 0 compiled.Pipeline.nests in
  st.exec_epoch <- st.exec_epoch + 1;
  let c = { st; nest = cn; nest_id; env } in
  let n = Ir.Nesting_tree.size cn.Compiled.tree in
  let ctxs = Array.init n (fun o -> Ir.Ctx.make ~ordinal:o ~spec:cn.Compiled.specs.(o)) in
  let root = cn.Compiled.root in
  let rinfo = cn.Compiled.infos.(root) in
  let lo, hi = rinfo.Compiled.loop.Ir.Nest.bounds env ctxs in
  Ir.Ctx.set_slice ctxs.(root) ~lo ~hi;
  (match rinfo.Compiled.loop.Ir.Nest.init with
  | Some f -> f env ctxs.(root).Ir.Ctx.locals
  | None -> ());
  if rinfo.Compiled.doall then emit_slice_enter c ctxs root;
  let ts = fresh_task_state c in
  (match run_slice c ts ctxs root with
  | Done -> ()
  | Promoted _ -> raise (Internal_error "root slice reported an ancestor promotion"));
  match rinfo.Compiled.loop.Ir.Nest.commit with Some f -> f env ctxs | None -> ()

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
  (* On resume the request's sink is muted until the replay passes the
     pause boundary: the observer already saw every earlier event during
     the original episodes, so the per-episode streams tile the
     uninterrupted stream exactly once. Fault counters are NOT gated —
     the replay re-derives them from zero, like the simulator's counting
     sink. *)
  let resuming = Option.is_some request.Run_request.resume_from in
  let gate = ref (not resuming) in
  let observer =
    if resuming && capture then
      Obs.Trace.Sink.fn (fun ~time ~worker ev ->
          if !gate then Obs.Trace.Sink.emit request.Run_request.trace ~time ~worker ev)
    else request.Run_request.trace
  in
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
  let core = C.create b in
  let st =
    {
      cfg;
      b;
      core;
      beat;
      slots = Array.init n (fun w -> Domains_backend.make_slot ~worker:w);
      ac =
        Array.init n (fun _ ->
            Array.of_list
              (List.map
                 (fun (_, cn) ->
                   Array.map
                     (fun _ ->
                       Sched.Adaptive_chunking.create
                         ~target_polls:cfg.Rt_config.ac_target_polls
                         ~window:cfg.Rt_config.ac_window ())
                     cn.Compiled.infos)
                 compiled.Pipeline.nests));
      promotions = Atomic.make 0;
      promo_left =
        Atomic.make
          (match request.Run_request.resume_from with
          | Some ck -> (
              (* The replay restarts from zero under the first episode's
                 grant; this episode's own grant applies at the boundary. *)
              match ck.Sim.Checkpoint_state.granted with
              | Some g -> Stdlib.max 0 g
              | None -> Stdlib.max_int)
          | None -> (
              match request.Run_request.promotion_budget with
              | Some bud -> Stdlib.max 0 bud
              | None -> Stdlib.max_int));
      promo_disabled = Atomic.make false;
      capture;
      chaos = Sim.Fault_injector.active (Domains_backend.injector b);
      downgrades = Atomic.make 0;
      live_slices = (if pausing then Some (Array.make n []) else None);
      next_mark = Stdlib.max_int;
      on_mark = (fun () -> ());
      exec_epoch = 0;
    }
  in
  (match beat with
  | Every_polls n -> Array.iter (fun (s : Domains_backend.slot) -> s.poll_beat_at <- n) st.slots
  | Wall_us _ -> ());
  let sum f = Array.fold_left (fun acc (s : Domains_backend.slot) -> acc + f s) 0 st.slots in
  (* Observational state at a pause boundary. Every field is a pure
     function of the single-worker deterministic dispatch history, so an
     uninterrupted replay reaching the same boundary re-derives the same
     bytes — that is the resume-divergence check. *)
  let checkpoint_now ~at_cycle ~episode ~granted ~regrants =
    let live = match st.live_slices with Some l -> l | None -> [||] in
    let slices =
      List.concat
        (List.init (Array.length live) (fun w ->
             (* stacks are LIFO; serialize bottom-to-top for a stable order *)
             List.rev_map
               (fun e ->
                 {
                   Sim.Checkpoint_state.sl_worker = w;
                   sl_task = e.ck_key;
                   sl_nest = e.ck_nest;
                   sl_lo = e.ck_ctx.Ir.Ctx.lo;
                   sl_hi = e.ck_ctx.Ir.Ctx.hi;
                 })
               live.(w)))
    in
    {
      Sim.Checkpoint_state.at_cycle;
      episode;
      rng_state = Int64.of_int (Domains_backend.rng_word b ~worker:0);
      next_task_id = C.next_task_id core;
      work_cycles = sum (fun s -> s.work);
      promotions_used = Atomic.get st.promotions;
      granted;
      regrants;
      clocks = Array.map (fun (s : Domains_backend.slot) -> s.progress) st.slots;
      deques = Array.init n (fun w -> Domains_backend.deque_task_ids b ~worker:w);
      slices;
    }
  in
  (* Boundary agenda: an ascending list of (progress, action) marks that
     [consume] fires synchronously on worker 0 — regrant replays, the
     resume byte-verify, and the pause point itself. *)
  let marks = ref [] in
  let arm ms =
    marks := ms;
    st.next_mark <- (match ms with [] -> Stdlib.max_int | (p, _) :: _ -> p)
  in
  st.on_mark <-
    (fun () ->
      match !marks with
      | [] -> st.next_mark <- Stdlib.max_int
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
            ~episode:ck.Sim.Checkpoint_state.episode ~granted:ck.Sim.Checkpoint_state.granted
            ~regrants:ck.Sim.Checkpoint_state.regrants
        in
        if not (Sim.Checkpoint_state.equal derived ck) then
          raise
            (Resume_diverged
               (Printf.sprintf "replayed state %s does not match checkpoint %s"
                  (Sim.Checkpoint_state.digest derived)
                  (Sim.Checkpoint_state.digest ck)))
        else begin
          (* The replay reproduced the paused state exactly: open the
             gate, apply this episode's grant (None keeps the remaining
             balance, which is what byte-identical continuation needs),
             and run for real. *)
          gate := true;
          (match request.Run_request.promotion_budget with
          | Some g ->
              Atomic.set st.promo_left (Stdlib.max 0 g);
              applied := Stdlib.max 0 g
          | None -> applied := -1);
          match request.Run_request.pause_at with
          | Some p when p > ck.Sim.Checkpoint_state.at_cycle ->
              arm [ (p, fun () -> raise Pause_now) ]
          | Some _ | None -> ()
        end
      in
      arm
        (List.map
           (fun (cyc, g) -> (cyc, fun () -> if g >= 0 then Atomic.set st.promo_left g))
           ck.Sim.Checkpoint_state.regrants
        @ [ (ck.Sim.Checkpoint_state.at_cycle, verify) ]));
  (* Watchdog rung 2, sampled on the monitor domain: a busy worker whose
     progress counter has not moved for [stuck_after] consecutive samples
     (one sample every [sample_every] park-timeout periods) is considered
     stuck; further promotions are disabled so no new tasks land behind
     it, and the run degrades to finishing what is already split. *)
  let tick =
    if not st.chaos then fun () -> ()
    else begin
      let sample_every = 16 and stuck_after = 8 in
      let last = Array.make n (-1) in
      let stuck = Array.make n 0 in
      let ticks = ref 0 in
      fun () ->
        incr ticks;
        if !ticks mod sample_every = 0 then
          for w = 0 to n - 1 do
            let p = st.slots.(w).progress in
            if Domains_backend.is_busy b ~worker:w && p = last.(w) then begin
              stuck.(w) <- stuck.(w) + 1;
              if stuck.(w) = stuck_after && not (Atomic.get st.promo_disabled) then begin
                Atomic.set st.promo_disabled true;
                Atomic.incr st.downgrades;
                Domains_backend.critical b (fun () ->
                    Domains_backend.emit b Obs.Trace.Mechanism_downgrade)
              end
            end
            else stuck.(w) <- 0;
            last.(w) <- p
          done
    end
  in
  Domains_backend.register ~worker:0;
  Domains_backend.start_monitor ~tick
    ?beat:(match beat with Wall_us us -> Some (us, st.slots) | Every_polls _ -> None)
    b;
  let domains =
    List.init (n - 1) (fun i ->
        Domain.spawn (fun () ->
            Domains_backend.register ~worker:(i + 1);
            C.scavenge core))
  in
  let t_start = Unix.gettimeofday () in
  let termination = ref Sim.Run_result.Finished in
  (try
     Fun.protect
       ~finally:(fun () ->
         C.set_finished core;
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
         (C.depth core).(0) <- 1;
         Domains_backend.set_busy b ~worker:0 ~busy:true;
         (* Driver intervals cover only the serial segments between nests —
            while a nest runs, worker 0 records its own task intervals, and
            one interval spanning the whole run would overlap them. *)
         let mark = ref (Domains_backend.now b) in
         let driver_segment_ends () =
           if st.capture && Domains_backend.now b > !mark then
             emit st (Obs.Trace.Interval { t0 = !mark; kind = "driver" })
         in
         let cpu =
           {
             Ir.Program.exec =
               (fun nest ->
                 driver_segment_ends ();
                 exec_nest st compiled env nest;
                 mark := Domains_backend.now b);
             advance = add_work st.slots.(0);
           }
         in
         program.Ir.Program.driver env cpu;
         driver_segment_ends ();
         (C.depth core).(0) <- 0;
         Domains_backend.set_busy b ~worker:0 ~busy:false)
   with
  | Pause_now ->
      (* The unwind skipped the live-registry pops and mutated nothing the
         checkpoint reads, so the boundary state is captured here intact. *)
      let p = Option.get request.Run_request.pause_at in
      termination :=
        Sim.Run_result.Paused
          (match request.Run_request.resume_from with
          | None ->
              checkpoint_now ~at_cycle:p ~episode:1 ~granted:request.Run_request.promotion_budget
                ~regrants:[]
          | Some ck ->
              checkpoint_now ~at_cycle:p
                ~episode:(ck.Sim.Checkpoint_state.episode + 1)
                ~granted:ck.Sim.Checkpoint_state.granted
                ~regrants:
                  (ck.Sim.Checkpoint_state.regrants
                  @ [ (ck.Sim.Checkpoint_state.at_cycle, !applied) ]))
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
  metrics.Sim.Metrics.promotions <- Atomic.get st.promotions;
  metrics.Sim.Metrics.faults_beats_dropped <- Atomic.get f_drops;
  metrics.Sim.Metrics.faults_steals_failed <- Atomic.get f_steals;
  metrics.Sim.Metrics.faults_stalls <- Atomic.get f_stalls;
  (* stall windows are poll-counted natively; the cycle counter carries
     the poll total so faults_injected and reports stay meaningful *)
  metrics.Sim.Metrics.faults_stall_cycles <- Atomic.get f_stall_polls;
  metrics.Sim.Metrics.faults_wakeups_delayed <- Atomic.get f_wakeups;
  metrics.Sim.Metrics.downgrades <- Atomic.get st.downgrades;
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
