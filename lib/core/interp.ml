(* The compiled-nest interpreter, written once for every scheduler
   backend. [Make (B) (H)] runs compiled nests over the policy core
   [Sched.Core.Make (B)]; [H] supplies only what really differs between
   backends: the worker handle a task carries, trace emission, the cost
   sites, the beat check, the promotion veto, reduction placement and the
   seeded-bug hook. The executor instantiates it over the simulator (each
   cost site advances virtual time), the native runner over real domains
   (each cost site adds body work or does nothing).

   Hooks run once per chunk, latch, slice entry, statement or promotion,
   never per iteration: the leaf chunk and the serial segment walk call
   none (without flambda every functor-argument call is an indirect
   call). The walk is recursion that returns the body work it did, so the
   interpreter allocates nothing per iteration; nested serial loops add
   their memory traffic into the task state once per sub-loop
   invocation. *)

exception Internal_error of string

type status = Done | Promoted of int

type seg_result = Seg_ok | Seg_promoted of int

type reduction_order = Completion_order | Spawn_order

(* Live-slice registry for checkpoint capture, armed only when the request
   pauses or resumes. One LIFO stack per worker holds the DOALL slice
   activations currently on that worker's stack; the checkpoint reads
   each context's remaining range in place at the pause boundary. When
   armed it costs two list writes per slice activation and nothing per
   iteration; unarmed runs skip it entirely. *)
type live_slice = { ck_key : int; ck_nest : string; ck_ctx : Ir.Ctx.t }

let checkpoint_slices live =
  match live with
  | None -> []
  | Some live ->
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

(* On resume the request's sink is muted until the replay passes the
   pause boundary: the observer already saw every earlier event during
   the original episodes, so the per-episode streams tile the
   uninterrupted stream exactly once. Run counters are not gated — the
   replay re-derives them from the start. *)
let gated_observer (request : Run_request.t) =
  let resuming = Option.is_some request.Run_request.resume_from in
  let gate = ref (not resuming) in
  let observer =
    if resuming && Obs.Trace.Sink.enabled request.Run_request.trace then
      Obs.Trace.Sink.fn (fun ~time ~worker ev ->
          if !gate then Obs.Trace.Sink.emit request.Run_request.trace ~time ~worker ev)
    else request.Run_request.trace
  in
  (gate, observer)

(* The episode fields of a checkpoint taken at a pause: the run's first
   episode, or the one after the checkpoint it resumed from, recording the
   grant [applied] at that boundary (-1: none). *)
let next_episode (request : Run_request.t) ~applied =
  match request.Run_request.resume_from with
  | None -> (1, request.Run_request.promotion_budget, [])
  | Some ck ->
      ( ck.Sim.Checkpoint_state.episode + 1,
        ck.Sim.Checkpoint_state.granted,
        ck.Sim.Checkpoint_state.regrants @ [ (ck.Sim.Checkpoint_state.at_cycle, applied) ] )

(* One task running a nest. [forbidden]: ordinal of the lowest loop in
   the enclosing context this task does NOT own (its frozen ancestors'
   iterations belong to the task that spawned it); promotions must never
   split it or anything above it. -1 when the task owns its whole chain
   (the root task). [bytes] collects the memory traffic of the serial
   walk in flight; being task-local, it costs the walk no extra argument
   and no shared write. A task never migrates between workers mid-run,
   so [worker] and its adaptive-chunking states [acs] ([nest][ord]) are
   fixed where the task starts. *)
type ('e, 'st, 'w) task = {
  st : 'st;  (* the run *)
  nest : 'e Compiled.nest;
  nest_id : int;
  env : 'e;
  residual : int array;
  forbidden : int;
  mutable bytes : int;
  worker : 'w;
  acs : Sched.Adaptive_chunking.t array array;
}

(* Sequential execution, outside the functor so that the per-iteration
   calls carry no functor environment: each function returns the body
   work it performed. [serial_range] runs the rest of [ctx]'s slice,
   [exec_segs] one iteration's segments, [serial_loop] a whole non-DOALL
   subtree, adding its memory traffic to [c.bytes] once per invocation. *)
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
  | Ir.Nest.Nested child :: rest ->
      exec_segs c ctxs rest iter (acc + serial_loop c ctxs child)

and serial_loop c ctxs (l : _ Ir.Nest.loop) =
  let ctx = ctxs.(l.Ir.Nest.ordinal) in
  let lo, hi = l.Ir.Nest.bounds c.env ctxs in
  Ir.Ctx.set_slice ctx ~lo ~hi;
  (match l.Ir.Nest.init with Some f -> f c.env ctx.Ir.Ctx.locals | None -> ());
  c.bytes <- c.bytes + ((hi - lo) * l.Ir.Nest.bytes_per_iter);
  serial_range c ctxs l.Ir.Nest.body ctx 0

(* Iterations [k, stop) of a leaf chunk; the context tracks the running
   iteration so the latch and leftover tasks see it. *)
let rec leaf_chunk c ctxs segs (ctx : Ir.Ctx.t) k stop acc =
  if k >= stop then acc
  else begin
    ctx.Ir.Ctx.lo <- k;
    leaf_chunk c ctxs segs ctx (k + 1) stop (exec_segs c ctxs segs k acc)
  end

(* What really differs between backends. *)
module type HOOKS = sig
  type t
  (** The backend's run state. *)

  type worker
  (** What a task carries: the engine worker id in the simulator, the
      padded per-worker record natively. *)

  val worker : t -> worker
  (** The calling worker, read once where a task starts. *)

  val index : worker -> int

  val emit : t -> Obs.Trace.event -> unit

  (** {2 Cost sites} Virtual-time charges in the simulator; natively they
      add body work to the worker's record or do nothing. *)

  val slice_entry : t -> unit
  (** Outlined call and closure load at every slice entry. *)

  val lst_store : t -> unit
  (** Live-slice-table store at the root and at each DOALL child entry. *)

  val chunk_end : t -> worker -> work:int -> bytes:int -> poll:bool -> chunked:bool -> bool
  (** A leaf chunk's body work and memory traffic; [chunked] when the
      chunk loop (not "no chunking") pays its bookkeeping. With [poll] the
      chunk ends in a poll and promotion branch, then the beat check that
      counts the poll; the result is whether it delivered a heartbeat
      ([false] without [poll]). *)

  val latch : t -> worker -> bytes:int -> bool
  (** A non-leaf DOALL latch: the iteration's memory traffic and the
      promotion branch, then the beat check, which only reads (the beat
      is the leaf poll's or the interrupt flag's); the result is whether
      it delivered a heartbeat. *)

  val work : t -> worker -> work:int -> bytes:int -> unit
  (** A statement's work ([bytes = 0]) or a serial subtree's. *)

  val promotion_handler : t -> unit

  val promotion_vetoed : t -> bool
  (** A backend veto on all further splits (the native rung-2 watchdog). *)

  val reduction_order : reduction_order
  (** Where a split loop's reduction halves combine into the parent:
      [Completion_order] in each finishing task (the simulator — moving it
      changes pinned fingerprints and makespans), [Spawn_order] on the
      owner after the join (natively, where concurrent combines race). *)

  val reduction : t -> Ir.Locals.spec -> unit
  (** The cost of one combine. *)

  val seeded_bug : t -> Sim_backend.seeded_bug option
  (** The armed seeded bug that has not fired yet; [None] natively. *)

  val fire_bug : t -> unit
end

module Make (B : Sched.Backend_intf.BACKEND) (H : HOOKS) = struct
  module C = Sched.Core.Make (B)

  type t = {
    cfg : Rt_config.t;
    hooks : H.t;
    core : C.t;
    capture : bool;
    ac : Sched.Adaptive_chunking.t array array array;
    live_slices : live_slice list array option;
    promotions : int Atomic.t;
    promo_left : int Atomic.t;
    mutable exec_epoch : int;
  }

  let create ~cfg ~hooks ~core ~capture ~(request : Run_request.t) (compiled : _ Pipeline.program)
      =
    let workers = B.num_workers (C.backend core) in
    {
      cfg;
      hooks;
      core;
      capture;
      (* Creation draws no randomness, so building every worker's state
         up front gives the same schedule as building it on first use. *)
      ac =
        Array.init workers (fun _ ->
            Array.of_list
              (List.map
                 (fun (_, cn) ->
                   Array.map
                     (fun _ ->
                       Sched.Adaptive_chunking.create ~target_polls:cfg.Rt_config.ac_target_polls
                         ~window:cfg.Rt_config.ac_window ())
                     cn.Compiled.infos)
                 compiled.Pipeline.nests));
      live_slices =
        (if
           Option.is_some request.Run_request.pause_at
           || Option.is_some request.Run_request.resume_from
         then Some (Array.make workers [])
         else None);
      promotions = Atomic.make 0;
      (* A replay restarts from the beginning under the first episode's
         grant; a resumed episode's own grant applies at the boundary. *)
      promo_left =
        Atomic.make
          (match (request.Run_request.resume_from, request.Run_request.promotion_budget) with
          | Some { Sim.Checkpoint_state.granted = Some g; _ }, _ | None, Some g -> Stdlib.max 0 g
          | Some _, _ | None, None -> Stdlib.max_int);
      exec_epoch = 0;
    }

  (* The replay of a resumed run reached the checkpoint [ck]'s boundary
     with state [derived]. On a match, apply this episode's grant ([None]
     keeps the remaining balance, which byte-identical continuation
     needs) and return it (-1: none); on a mismatch, why. *)
  let resume_boundary st (request : Run_request.t) ck ~derived =
    if not (Sim.Checkpoint_state.equal derived ck) then
      Error
        (Printf.sprintf "replayed state %s does not match checkpoint %s"
           (Sim.Checkpoint_state.digest derived) (Sim.Checkpoint_state.digest ck))
    else
      match request.Run_request.promotion_budget with
      | Some g ->
          Atomic.set st.promo_left (Stdlib.max 0 g);
          Ok (Stdlib.max 0 g)
      | None -> Ok (-1)

  (* A task of [nest], called where it starts running. *)
  let start_task st nest ~nest_id env ~forbidden =
    let worker = H.worker st.hooks in
    {
      st;
      nest;
      nest_id;
      env;
      residual = Array.make (Ir.Nesting_tree.size nest.Compiled.tree) 0;
      forbidden;
      bytes = 0;
      worker;
      acs = st.ac.(H.index worker);
    }

  (* Another task of [c]'s nest. *)
  let sibling c ~forbidden = start_task c.st c.nest ~nest_id:c.nest_id c.env ~forbidden

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

  (* The promotion gate shared by leaf beats and general-loop latches. At
     an exhausted meter or a backend veto the run degrades to serial
     execution of what remains, which is always correct. *)
  let may_promote st =
    st.cfg.Rt_config.promotion
    && Atomic.get st.promo_left > 0
    && not (H.promotion_vetoed st.hooks)

  (* Sanitizer bookkeeping: a loop-slice invocation is identified by the
     iteration vector of its ancestors plus the nest id, the loop ordinal
     and an execution epoch bumped per [exec_nest] call (drivers may run
     the same nest repeatedly with identical bounds). Spawned slice halves
     and leftover tasks operate on copied context sets that preserve the
     ancestors' iterations, so every continuation of an invocation hashes
     to the same key and the sanitizer can check that its [Iter_exec]
     intervals tile the [Slice_enter] range exactly once. Computed only
     on captured runs. *)
  let slice_key c (ctxs : Ir.Ctx.set) ord =
    let h = ref (((c.nest_id + 1) * 8191) + c.st.exec_epoch) in
    List.iter
      (fun o -> if o <> ord then h := (!h * 1000003) + ctxs.(o).Ir.Ctx.lo + 1)
      c.nest.Compiled.infos.(ord).Compiled.chain_from_root;
    ((!h * 1000003) + ord) land max_int

  let emit_slice_enter c ctxs ord =
    if c.st.capture then begin
      let ctx = ctxs.(ord) in
      H.emit c.st.hooks
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
    if c.st.capture && hi > lo then
      H.emit c.st.hooks
        (Obs.Trace.Iter_exec { nest = c.nest_id; ord; key = slice_key c ctxs ord; lo; hi })

  let rec run_slice c ctxs ord =
    match c.st.live_slices with
    | Some live when c.nest.Compiled.infos.(ord).Compiled.doall ->
        (* Registration and removal hit the same stack because tasks never
           migrate. A native pause unwind skips the removal on purpose:
           the checkpoint reads the still-registered activations. *)
        let w = H.index c.worker in
        live.(w) <-
          {
            ck_key = slice_key c ctxs ord;
            ck_nest = Printf.sprintf "%s#%d" c.nest.Compiled.source_name ord;
            ck_ctx = ctxs.(ord);
          }
          :: live.(w);
        let r = run_slice_body c ctxs ord in
        (match live.(w) with _ :: rest -> live.(w) <- rest | [] -> ());
        r
    | _ -> run_slice_body c ctxs ord

  and run_slice_body c ctxs ord =
    let st = c.st in
    let info = c.nest.Compiled.infos.(ord) in
    H.slice_entry st.hooks;
    if not info.Compiled.doall then begin
      (* Bounds were set by the caller; run the subtree serially. *)
      let ctx = ctxs.(ord) in
      c.bytes <- (ctx.Ir.Ctx.hi - ctx.Ir.Ctx.lo) * info.Compiled.loop.Ir.Nest.bytes_per_iter;
      let work = serial_range c ctxs info.Compiled.loop.Ir.Nest.body ctx 0 in
      H.work st.hooks c.worker ~work ~bytes:c.bytes;
      Done
    end
    else if info.Compiled.is_leaf then begin
      if not st.cfg.Rt_config.chunk_transferring then c.residual.(ord) <- 0;
      run_leaf c ctxs info c.acs.(c.nest_id).(ord)
    end
    else run_general c ctxs info

  (* The leaf loop, one chunk per step. [a] is this worker's chunking
     state for the leaf; only [Adaptive] leaves read or update it. Without
     chunking every chunk is one iteration, a promotion point each. *)
  and run_leaf c ctxs info a =
    let st = c.st in
    let ord = info.Compiled.ordinal in
    let ctx = ctxs.(ord) in
    if ctx.Ir.Ctx.lo >= ctx.Ir.Ctx.hi then Done
    else begin
      let s =
        match info.Compiled.chunk with
        | Compiled.No_chunking -> 1
        | Compiled.Static s -> s
        | Compiled.Adaptive -> Sched.Adaptive_chunking.chunk_size a
      in
      if c.residual.(ord) <= 0 then c.residual.(ord) <- s;
      let start = ctx.Ir.Ctx.lo in
      let todo = Int.min c.residual.(ord) (ctx.Ir.Ctx.hi - start) in
      c.bytes <- todo * info.Compiled.loop.Ir.Nest.bytes_per_iter;
      let work = leaf_chunk c ctxs info.Compiled.loop.Ir.Nest.body ctx start (start + todo) 0 in
      emit_iter_exec c ctxs ord ~lo:start ~hi:(start + todo);
      (* ctx.lo is the last executed iteration: the latch sees it, the
         leftover task resumes at lo + 1. *)
      c.residual.(ord) <- c.residual.(ord) - todo;
      (* A full chunk ends in a poll. A partial one ends the invocation:
         the residual transfers to the next invocation of this leaf in
         this task. *)
      let poll = c.residual.(ord) = 0 in
      let chunked = match info.Compiled.chunk with Compiled.No_chunking -> false | _ -> true in
      let beat = H.chunk_end st.hooks c.worker ~work ~bytes:c.bytes ~poll ~chunked in
      (match info.Compiled.chunk with
      | Compiled.Adaptive when poll -> Sched.Adaptive_chunking.on_poll a
      | Compiled.Adaptive | Compiled.Static _ | Compiled.No_chunking -> ());
      let beat = poll && (beat || st.cfg.Rt_config.force_promotion) in
      match if beat then leaf_beat c ctxs info a else None with
      | Some r -> r
      | None ->
          ctx.Ir.Ctx.lo <- ctx.Ir.Ctx.lo + 1;
          run_leaf c ctxs info a
    end

  (* A beat seen at a leaf poll: close the chunking interval, then try to
     promote. [None] means the leaf keeps running. *)
  and leaf_beat c ctxs info a =
    let st = c.st in
    (match info.Compiled.chunk with
    | Compiled.Adaptive ->
        let key = ctxs.(c.nest.Compiled.root).Ir.Ctx.lo in
        if st.capture then begin
          (* Capturing runs pay for the full decision record so the
             sanitizer can replay the update rule; plain runs take the
             allocation-free path. *)
          match Sched.Adaptive_chunking.on_heartbeat_full a with
          | Some d ->
              H.emit st.hooks
                (Obs.Trace.Chunk_update
                   { key; chunk = d.Sched.Adaptive_chunking.new_chunk });
              H.emit st.hooks
                (Obs.Trace.Chunk_decision
                   {
                     key = slice_key c ctxs info.Compiled.ordinal;
                     old_chunk = d.Sched.Adaptive_chunking.old_chunk;
                     min_polls = d.Sched.Adaptive_chunking.min_polls;
                     chunk = d.Sched.Adaptive_chunking.new_chunk;
                   })
          | None -> ()
        end
        else begin
          match Sched.Adaptive_chunking.on_heartbeat a with
          | Some chunk -> H.emit st.hooks (Obs.Trace.Chunk_update { key; chunk })
          | None -> ()
        end
    | Compiled.Static _ | Compiled.No_chunking -> ());
    if may_promote st then promote c ctxs info else None

  and run_general c ctxs info =
    let st = c.st in
    let ord = info.Compiled.ordinal in
    let ctx = ctxs.(ord) in
    if ctx.Ir.Ctx.lo >= ctx.Ir.Ctx.hi then Done
    else begin
      let iter = ctx.Ir.Ctx.lo in
      match run_segments c ctxs info.Compiled.loop.Ir.Nest.body iter with
      | Seg_promoted j -> if j = ord then Done else Promoted j
      | Seg_ok -> (
          (* The iteration completed in full inside this task; emitted
             before the latch so a promotion splitting this loop cannot
             lose it. The latch is the promotion-handler call guarded by a
             branch: the beat itself is the leaf poll's (or the interrupt
             flag's), so the check counts no poll. *)
          emit_iter_exec c ctxs ord ~lo:iter ~hi:(iter + 1);
          let beat =
            H.latch st.hooks c.worker ~bytes:info.Compiled.loop.Ir.Nest.bytes_per_iter
            || st.cfg.Rt_config.force_promotion
          in
          match if beat && may_promote st then promote c ctxs info else None with
          | Some r -> r
          | None ->
              ctx.Ir.Ctx.lo <- iter + 1;
              run_general c ctxs info)
    end

  and run_segments c ctxs segs iter =
    let h = c.st.hooks in
    match segs with
    | [] -> Seg_ok
    | Ir.Nest.Stmt s :: rest ->
        H.work h c.worker ~work:(s.Ir.Nest.exec c.env ctxs iter) ~bytes:0;
        run_segments c ctxs rest iter
    | Ir.Nest.Nested child :: rest ->
        let o = child.Ir.Nest.ordinal in
        if c.nest.Compiled.infos.(o).Compiled.doall then begin
          let lo, hi = child.Ir.Nest.bounds c.env ctxs in
          Ir.Ctx.set_slice ctxs.(o) ~lo ~hi;
          (* A fresh invocation (re)establishes the child's locals; a slice
             resumed by a leftover task keeps its partial state instead. *)
          (match child.Ir.Nest.init with Some f -> f c.env ctxs.(o).Ir.Ctx.locals | None -> ());
          emit_slice_enter c ctxs o;
          H.lst_store h;
          match run_slice c ctxs o with
          | Done -> run_segments c ctxs rest iter
          | Promoted j -> Seg_promoted j
        end
        else begin
          c.bytes <- 0;
          let work = serial_loop c ctxs child in
          H.work h c.worker ~work ~bytes:c.bytes;
          run_segments c ctxs rest iter
        end

  (* The promotion handler: policy-chosen split of the current context
     chain, task creation through the policy core, clone-optimized join.
     Reduction halves combine into the parent where [H.reduction_order]
     says: each finishing task in completion order, or the owner after
     the join in spawn order. *)
  and promote c ctxs cur =
    let st = c.st in
    let h = st.hooks in
    (* Splitting an ancestor needs its compiled leftover task; with
       Algorithm 1's leaves-only enumeration, promotions at non-leaf
       latches can only split the interrupted loop itself. *)
    let statically_splittable o =
      c.nest.Compiled.infos.(o).Compiled.doall
      && (o = cur.Compiled.ordinal
         || Compiled.find_leftover c.nest ~li:cur.Compiled.ordinal ~lj:o <> None)
    in
    let splittable o = statically_splittable o && Ir.Ctx.remaining ctxs.(o) >= 1 in
    (* Only the suffix of the chain below the task's ownership boundary is
       a legal split target: contexts at or above [forbidden] are frozen
       snapshots whose remaining iterations belong to the spawning task. *)
    let chain = Sched.Policy.owned_suffix ~forbidden:c.forbidden cur.Compiled.chain_from_root in
    let policy =
      match H.seeded_bug h with
      | Some Sim_backend.Promote_innermost ->
          (* Seeded bug: silently invert the configured policy's direction. *)
          Sched.Policy.invert st.cfg.Rt_config.policy
      | Some (Sim_backend.Duplicate_leftover | Sim_backend.Lose_stolen_task) | None ->
          st.cfg.Rt_config.policy
    in
    match Sched.Policy.choose_target ~policy ~splittable chain with
    | None -> None
    | Some tgt ->
        (* A metered promotion is spent only when a split actually
           happens: beats with no eligible candidate cost nothing. *)
        if not (spend_promotion st) then None
        else begin
          Atomic.incr st.promotions;
          if st.capture then
            H.emit h
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
          H.emit h (Obs.Trace.promotion tinfo.Compiled.depth);
          H.promotion_handler h;
          let tctx = ctxs.(tgt) in
          let rem_lo = tctx.Ir.Ctx.lo + 1 and rem_hi = tctx.Ir.Ctx.hi in
          (* Consume the remaining iterations from the running task;
             everything from here on belongs to the spawned tasks. *)
          tctx.Ir.Ctx.hi <- tctx.Ir.Ctx.lo + 1;
          let mid = Sched.Policy.split_point ~lo:rem_lo ~hi:rem_hi in
          let join = C.new_join st.core in
          let spawned = spawn_half c ctxs tinfo join ~lo:rem_lo ~hi:mid [] in
          let spawned = spawn_half c ctxs tinfo join ~lo:mid ~hi:rem_hi spawned in
          (if tgt <> cur.Compiled.ordinal then
             match Compiled.find_leftover c.nest ~li:cur.Compiled.ordinal ~lj:tgt with
             | None ->
                 raise
                   (Internal_error
                      (Printf.sprintf "missing leftover task for pair (%d, %d)"
                         cur.Compiled.ordinal tgt))
             | Some leftover -> (
                 let lctxs = Ir.Ctx.copy_set ctxs in
                 match st.cfg.Rt_config.leftover with
                 | Rt_config.Spawn -> (
                     push_leftover c join lctxs leftover;
                     match H.seeded_bug h with
                     | Some Sim_backend.Duplicate_leftover ->
                         (* Seeded bug: the leftover is pushed twice; its
                            iterations execute twice (the duplicate gets its
                            own context copy so both runs cover the full
                            range). *)
                         H.fire_bug h;
                         push_leftover c join (Ir.Ctx.copy_set lctxs) leftover
                     | Some (Sim_backend.Promote_innermost | Sim_backend.Lose_stolen_task) | None
                       ->
                         ())
                 | Rt_config.Inline ->
                     (* TPAL: the leftover stays on the promoting task's
                        critical path — executed here, inside the handler,
                        before the join; it cannot be stolen, but its loops
                        keep their promotion points. *)
                     run_leftover c lctxs leftover));
          C.join_wait st.core join;
          combine_in_spawn_order c tinfo tctx spawned;
          Some (if tgt = cur.Compiled.ordinal then Done else Promoted tgt)
        end

  (* One half [lo, hi) of the split loop [tinfo], on a copy of the context
     chain with fresh locals below it, pushed as a task under [join].
     Returns [acc] with the copy added when its reduction combines after
     the join. *)
  and spawn_half c ctxs tinfo join ~lo ~hi acc =
    if hi <= lo then acc
    else begin
      let tgt = tinfo.Compiled.ordinal in
      let nctxs = Ir.Ctx.copy_set ctxs in
      Ir.Ctx.refresh_subtree nctxs ~ordinals:tinfo.Compiled.subtree ~specs:c.nest.Compiled.specs;
      Ir.Ctx.set_slice nctxs.(tgt) ~lo ~hi;
      (match tinfo.Compiled.loop.Ir.Nest.init with
      | Some f -> f c.env nctxs.(tgt).Ir.Ctx.locals
      | None -> ());
      let tctx = ctxs.(tgt) in
      C.add_pending join;
      C.push_task c.st.core
        (C.mk_task c.st.core (fun () ->
             let forbidden = Option.value ~default:(-1) tinfo.Compiled.parent in
             (match run_slice (sibling c ~forbidden) nctxs tinfo.Compiled.ordinal with
             | Done | Promoted _ -> ());
             (match H.reduction_order with
             | Completion_order -> combine c tinfo tctx nctxs
             | Spawn_order -> ());
             C.finish_join c.st.core join));
      match (H.reduction_order, tinfo.Compiled.loop.Ir.Nest.reduction) with
      | Spawn_order, Some _ -> nctxs :: acc
      | Spawn_order, None | Completion_order, _ -> acc
    end

  (* Combine a finished half's reduction locals into the parent's. *)
  and combine c tinfo (tctx : Ir.Ctx.t) nctxs =
    match tinfo.Compiled.loop.Ir.Nest.reduction with
    | Some f ->
        let tgt = tinfo.Compiled.ordinal in
        H.reduction c.st.hooks c.nest.Compiled.specs.(tgt);
        f tctx.Ir.Ctx.locals nctxs.(tgt).Ir.Ctx.locals
    | None -> ()

  (* [spawned] is newest first; combine oldest first. *)
  and combine_in_spawn_order c tinfo tctx spawned =
    match spawned with
    | [] -> ()
    | nctxs :: older ->
        combine_in_spawn_order c tinfo tctx older;
        combine c tinfo tctx nctxs

  and push_leftover c join lctxs leftover =
    C.add_pending join;
    C.push_task c.st.core
      (C.mk_task c.st.core (fun () ->
           run_leftover c lctxs leftover;
           C.finish_join c.st.core join))

  and run_leftover c ctxs leftover =
    H.emit c.st.hooks Obs.Trace.Leftover_run;
    let c = sibling c ~forbidden:leftover.Compiled.lj in
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
          match run_slice c ctxs o with
          | Done -> Sched.Leftover_walk.Next
          | Promoted j when j = o -> Sched.Leftover_walk.Next
          | Promoted j -> Sched.Leftover_walk.Skip_past j)
      | Compiled.Tail_work { of_; after } -> (
          let info = c.nest.Compiled.infos.(of_) in
          let segs = Compiled.tail_of info ~after in
          match run_segments c ctxs segs ctxs.(of_).Ir.Ctx.lo with
          | Seg_ok ->
              (* The tail just completed the in-flight iteration of [of_]
                 that the promotion interrupted — it is only now fully
                 executed. *)
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
    let c = start_task st cn ~nest_id env ~forbidden:(-1) in
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
    H.lst_store st.hooks;
    (match run_slice c ctxs root with
    | Done -> ()
    | Promoted _ -> raise (Internal_error "root slice reported an ancestor promotion"));
    match rinfo.Compiled.loop.Ir.Nest.commit with Some f -> f env ctxs | None -> ()
end
