exception Did_not_finish

exception Internal_error of string

type status = Done | Promoted of int

type seg_result = Seg_ok | Seg_promoted of int

(* The scheduler proper — deque discipline, steal protocol, joins, task
   lifecycle events — lives in the backend-agnostic policy core; this
   executor is its simulator instantiation plus the cost-annotated nest
   interpreter. The same functor over [Hb_parallel.Domains_backend] runs
   the identical policy on real OCaml 5 domains. *)
module S = Sched.Core.Make (Sim_backend)

type seeded_bug = Sim_backend.seeded_bug =
  | Duplicate_leftover  (* push the leftover task twice on promotion *)
  | Lose_stolen_task  (* drop one successfully stolen task on the floor *)
  | Promote_innermost  (* invert the promotion policy's target choice *)

let seeded_bug : seeded_bug option ref = ref None

let set_seeded_bug b = seeded_bug := b

(* [forbidden]: ordinal of the lowest loop in the enclosing context this
   task does NOT own (its frozen ancestors' iterations belong to the task
   that spawned it); promotions must never split it or anything above it.
   -1 when the task owns its whole chain (the root task). *)
type task_state = { residual : int array; mutable no_promote : bool; mutable forbidden : int }

(* Live-slice registry for checkpoint capture, armed only when the request
   pauses or resumes. One LIFO stack per worker holds the DOALL slice
   activations currently on that worker's fiber; the checkpoint reads each
   context's remaining range in place at the pause boundary. When armed it
   costs two list writes per slice activation and nothing per iteration;
   unarmed runs skip it entirely, keeping the hot path untouched. *)
type live_slice = { ck_key : int; ck_nest : string; ck_ctx : Ir.Ctx.t }

type run_state = {
  cfg : Rt_config.t;
  eng : Sim.Engine.t;
  hb : Heartbeat.t;
  metrics : Sim.Metrics.t;
  trace : Obs.Trace.Sink.t;  (* counting sink teed with the request's sink *)
  capture : bool;  (* the request's sink wants payload events (intervals) *)
  inj : Sim.Fault_injector.t;
  sb : Sim_backend.t;  (* the simulator as a scheduler backend (deques, RNG) *)
  sc : S.t;  (* the shared policy core instantiated over [sb] *)
  ac : (int * int * int, Sched.Adaptive_chunking.t) Hashtbl.t;
  bus : Sim.Membus.t;
  mutable exec_epoch : int;  (* bumped per exec_nest call, part of slice keys *)
  live_slices : live_slice list array option;
      (* per-worker stacks of live DOALL slices; Some only on pause/resume *)
  mutable promo_left : int;
      (* remaining metered promotions (max_int = unmetered); at 0 the run
         degrades gracefully: no more splits, remaining work runs serially *)
}

type 'e nest_handle = { st : run_state; nest : 'e Compiled.nest; nest_id : int; env : 'e }

let cm (st : run_state) = st.cfg.Rt_config.cost

let wid (st : run_state) = Sim.Engine.worker_id st.eng

(* Emit one trace event stamped with the current worker and virtual time.
   Emission never advances the clock or consumes randomness, so a run's
   results are identical whatever sink it carries. *)
let emit (st : run_state) ev =
  Obs.Trace.Sink.emit st.trace ~time:(Sim.Engine.now st.eng) ~worker:(wid st) ev

(* Attribute cycles an advance already paid for. Charges are fixed-arity
   calls (one advance, then one [charge] per part): no cost-part lists and
   no closures on the charge path. *)
let charge (st : run_state) kind c = if c > 0 then Sim.Metrics.add_overhead st.metrics kind c

(* Charge overhead cycles: one engine advance, per-kind attribution. *)
let overhead (st : run_state) kind c =
  if c > 0 then begin
    Sim.Engine.advance st.eng c;
    Sim.Metrics.add_overhead st.metrics kind c
  end

(* Work plus [extra] overhead cycles in a single advance (hot path: one
   event per chunk); the caller [charge]s [extra] to its kinds. Memory
   traffic is booked on the shared bus; time past the compute cost is a
   bandwidth stall. *)
let advance_mixed (st : run_state) ~work ~bytes ~extra =
  let compute = work + extra in
  let total = Sim.Membus.serve st.bus ~now:(Sim.Engine.now st.eng) ~compute ~bytes in
  if total > 0 then Sim.Engine.advance st.eng total;
  st.metrics.Sim.Metrics.work_cycles <- st.metrics.Sim.Metrics.work_cycles + work;
  if total > compute then Sim.Metrics.add_overhead st.metrics Sim.Metrics.Membus (total - compute)

(* Chunk-loop bookkeeping cycles per leaf-chunk invocation. *)
let chunking_cost = 2

let add_work (st : run_state) c =
  st.metrics.Sim.Metrics.work_cycles <- st.metrics.Sim.Metrics.work_cycles + c;
  if c > 0 then Sim.Engine.advance st.eng c

let reduction_cost (spec : Ir.Locals.spec) =
  8 + (2 * (spec.Ir.Locals.nfloats + spec.Ir.Locals.nints))

let fresh_task_state c =
  {
    residual = Array.make (Ir.Nesting_tree.size c.nest.Compiled.tree) 0;
    no_promote = false;
    forbidden = -1;
  }

let ac_for st ~worker ~nest_id ~ord =
  let key = (worker, nest_id, ord) in
  match Hashtbl.find_opt st.ac key with
  | Some a -> a
  | None ->
      let a =
        Sched.Adaptive_chunking.create ~target_polls:st.cfg.Rt_config.ac_target_polls
          ~window:st.cfg.Rt_config.ac_window ()
      in
      Hashtbl.add st.ac key a;
      a

(* ------------------------------------------------------------------ *)
(* Interpreter for compiled nests.                                      *)
(* ------------------------------------------------------------------ *)

(* Sequential subtree execution for non-DOALL (pruned) loops: pure work,
   accumulated into [acc] and advanced by the caller. *)
let rec serial_loop c (ctxs : Ir.Ctx.set) (l : _ Ir.Nest.loop) acc acc_bytes =
  let ctx = ctxs.(l.Ir.Nest.ordinal) in
  let lo, hi = l.Ir.Nest.bounds c.env ctxs in
  Ir.Ctx.set_slice ctx ~lo ~hi;
  (match l.Ir.Nest.init with Some f -> f c.env ctx.Ir.Ctx.locals | None -> ());
  acc_bytes := !acc_bytes + ((hi - lo) * l.Ir.Nest.bytes_per_iter);
  while ctx.Ir.Ctx.lo < ctx.Ir.Ctx.hi do
    serial_segments c ctxs l.Ir.Nest.body ctx.Ir.Ctx.lo acc acc_bytes;
    ctx.Ir.Ctx.lo <- ctx.Ir.Ctx.lo + 1
  done

(* One iteration's statements plus sequential sub-loops, cost accumulated
   without advancing. *)
and serial_segments c ctxs segs iter acc acc_bytes =
  match segs with
  | [] -> ()
  | Ir.Nest.Stmt s :: rest ->
      acc := !acc + s.Ir.Nest.exec c.env ctxs iter;
      serial_segments c ctxs rest iter acc acc_bytes
  | Ir.Nest.Nested child :: rest ->
      serial_loop c ctxs child acc acc_bytes;
      serial_segments c ctxs rest iter acc acc_bytes

(* Sanitizer bookkeeping: a loop-slice *invocation* is identified by the
   iteration vector of its ancestors (each ancestor's current iteration)
   plus the nest id, the loop ordinal, and an execution epoch bumped per
   [exec_nest] call (drivers may run the same nest repeatedly with
   identical bounds). Spawned slice halves and leftover tasks operate on
   copied context sets that preserve the ancestors' iterations, so every
   continuation of an invocation hashes to the same key and the sanitizer
   can check that its [Iter_exec] intervals tile the [Slice_enter] range
   exactly once. Computed only on captured runs. *)
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
      (* Slices never migrate workers mid-run (a task executes on the fiber
         that started it), so registration and removal hit the same stack. *)
      let w = wid c.st in
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
  let st = c.st in
  let info = c.nest.Compiled.infos.(ord) in
  let outline = (cm st).Sim.Cost_model.outline_call_cost
  and closure = (cm st).Sim.Cost_model.closure_load_cost in
  if outline + closure > 0 then begin
    Sim.Engine.advance st.eng (outline + closure);
    charge st Sim.Metrics.Outline_call outline;
    charge st Sim.Metrics.Closure closure
  end;
  let ctx = ctxs.(ord) in
  if not info.Compiled.doall then begin
    let acc = ref 0 in
    let acc_bytes = ref ((ctx.Ir.Ctx.hi - ctx.Ir.Ctx.lo) * info.Compiled.loop.Ir.Nest.bytes_per_iter) in
    (* Bounds were set by the caller; re-run the subtree serially. *)
    while ctx.Ir.Ctx.lo < ctx.Ir.Ctx.hi do
      serial_segments c ctxs info.Compiled.loop.Ir.Nest.body ctx.Ir.Ctx.lo acc acc_bytes;
      ctx.Ir.Ctx.lo <- ctx.Ir.Ctx.lo + 1
    done;
    advance_mixed st ~work:!acc ~bytes:!acc_bytes ~extra:0;
    Done
  end
  else if info.Compiled.is_leaf then run_leaf c ts ctxs info
  else run_general c ts ctxs info

and run_leaf : 'e. 'e nest_handle -> task_state -> Ir.Ctx.set -> 'e Compiled.loop_info -> status
    =
 fun c ts ctxs info ->
  let st = c.st in
  let costs = cm st in
  let ord = info.Compiled.ordinal in
  let ctx = ctxs.(ord) in
  let w = wid st in
  let ac =
    match info.Compiled.chunk with
    | Compiled.Adaptive -> Some (ac_for st ~worker:w ~nest_id:c.nest_id ~ord)
    | Compiled.Static _ | Compiled.No_chunking -> None
  in
  let transferring = st.cfg.Rt_config.chunk_transferring in
  if not transferring then ts.residual.(ord) <- 0;
  let transfer_cost = if transferring then costs.Sim.Cost_model.chunk_transfer_cost else 0 in
  let result = ref None in
  let handle_beat () =
    (* A detected heartbeat: let AC close its interval, then promote. *)
    (match ac with
    | Some a when st.capture -> (
        (* Capturing runs pay for the full decision record so the sanitizer
           can replay the update rule; plain runs take the alloc-free path. *)
        match Sched.Adaptive_chunking.on_heartbeat_full a with
        | Some d ->
            emit st
              (Obs.Trace.Chunk_update
                 { key = ctxs.(c.nest.Compiled.root).Ir.Ctx.lo; chunk = d.Sched.Adaptive_chunking.new_chunk });
            emit st
              (Obs.Trace.Chunk_decision
                 {
                   key = slice_key c ctxs ord;
                   old_chunk = d.Sched.Adaptive_chunking.old_chunk;
                   min_polls = d.Sched.Adaptive_chunking.min_polls;
                   chunk = d.Sched.Adaptive_chunking.new_chunk;
                 })
        | None -> ())
    | Some a -> (
        match Sched.Adaptive_chunking.on_heartbeat a with
        | Some chunk ->
            emit st
              (Obs.Trace.Chunk_update
                 { key = ctxs.(c.nest.Compiled.root).Ir.Ctx.lo; chunk })
        | None -> ())
    | None -> ());
    if st.cfg.Rt_config.promotion && not ts.no_promote && st.promo_left > 0 then
      promote c ts ctxs info
    else None
  in
  while !result = None && ctx.Ir.Ctx.lo < ctx.Ir.Ctx.hi do
    match info.Compiled.chunk with
    | Compiled.No_chunking ->
        (* Promotion point at every iteration: the configuration Fig. 8 calls
           "No chunking". *)
        let acc = ref 0 in
        let acc_bytes = ref info.Compiled.loop.Ir.Nest.bytes_per_iter in
        serial_segments c ctxs info.Compiled.loop.Ir.Nest.body ctx.Ir.Ctx.lo acc acc_bytes;
        emit_iter_exec c ctxs ord ~lo:ctx.Ir.Ctx.lo ~hi:(ctx.Ir.Ctx.lo + 1);
        let poll = Heartbeat.poll_cost st.hb ~worker:w in
        let branch = costs.Sim.Cost_model.promotion_branch_cost in
        advance_mixed st ~work:!acc ~bytes:!acc_bytes ~extra:(poll + branch);
        charge st Sim.Metrics.Poll poll;
        charge st Sim.Metrics.Promotion_branch branch;
        (match ac with Some a -> Sched.Adaptive_chunking.on_poll a | None -> ());
        let beat =
          Heartbeat.consume st.hb ~worker:w ~count_poll:true
          || st.cfg.Rt_config.force_promotion
        in
        if beat then begin
          match handle_beat () with
          | Some s -> result := Some s
          | None -> ctx.Ir.Ctx.lo <- ctx.Ir.Ctx.lo + 1
        end
        else ctx.Ir.Ctx.lo <- ctx.Ir.Ctx.lo + 1
    | Compiled.Static _ | Compiled.Adaptive ->
        let s =
          match info.Compiled.chunk with
          | Compiled.Static s -> s
          | Compiled.Adaptive -> Sched.Adaptive_chunking.chunk_size (Option.get ac)
          | Compiled.No_chunking -> 1
        in
        if ts.residual.(ord) <= 0 then ts.residual.(ord) <- s;
        let start = ctx.Ir.Ctx.lo in
        let n_left = ctx.Ir.Ctx.hi - start in
        let todo = Stdlib.min ts.residual.(ord) n_left in
        let acc = ref 0 in
        let acc_bytes = ref (todo * info.Compiled.loop.Ir.Nest.bytes_per_iter) in
        for k = 0 to todo - 1 do
          ctx.Ir.Ctx.lo <- start + k;
          serial_segments c ctxs info.Compiled.loop.Ir.Nest.body (start + k) acc acc_bytes
        done;
        emit_iter_exec c ctxs ord ~lo:start ~hi:(start + todo);
        (* ctx.lo is the last executed iteration: the latch sees it, the
           leftover task resumes at lo + 1. *)
        ts.residual.(ord) <- ts.residual.(ord) - todo;
        let full_chunk = ts.residual.(ord) = 0 in
        if full_chunk then begin
          let poll = Heartbeat.poll_cost st.hb ~worker:w in
          let branch = costs.Sim.Cost_model.promotion_branch_cost in
          advance_mixed st ~work:!acc ~bytes:!acc_bytes
            ~extra:(chunking_cost + transfer_cost + poll + branch);
          charge st Sim.Metrics.Chunking chunking_cost;
          charge st Sim.Metrics.Chunk_transfer transfer_cost;
          charge st Sim.Metrics.Poll poll;
          charge st Sim.Metrics.Promotion_branch branch;
          (match ac with Some a -> Sched.Adaptive_chunking.on_poll a | None -> ());
          let beat =
            let b = Heartbeat.consume st.hb ~worker:w ~count_poll:true in
            b || st.cfg.Rt_config.force_promotion
          in
          if beat then begin
            match handle_beat () with
            | Some s -> result := Some s
            | None -> ctx.Ir.Ctx.lo <- ctx.Ir.Ctx.lo + 1
          end
          else ctx.Ir.Ctx.lo <- ctx.Ir.Ctx.lo + 1
        end
        else begin
          (* Partial chunk: the invocation ends here and the residual
             transfers to the next invocation of this leaf in this task. *)
          advance_mixed st ~work:!acc ~bytes:!acc_bytes ~extra:(chunking_cost + transfer_cost);
          charge st Sim.Metrics.Chunking chunking_cost;
          charge st Sim.Metrics.Chunk_transfer transfer_cost;
          ctx.Ir.Ctx.lo <- ctx.Ir.Ctx.lo + 1
        end
  done;
  match !result with Some s -> s | None -> Done

and run_general :
    'e. 'e nest_handle -> task_state -> Ir.Ctx.set -> 'e Compiled.loop_info -> status =
 fun c ts ctxs info ->
  let st = c.st in
  let costs = cm st in
  let ctx = ctxs.(info.Compiled.ordinal) in
  let result = ref None in
  while !result = None && ctx.Ir.Ctx.lo < ctx.Ir.Ctx.hi do
    let iter = ctx.Ir.Ctx.lo in
    match run_segments c ts ctxs info info.Compiled.loop.Ir.Nest.body iter with
    | Seg_promoted j when j = info.Compiled.ordinal -> result := Some Done
    | Seg_promoted j -> result := Some (Promoted j)
    | Seg_ok ->
        (* The iteration completed in full inside this task; emitted before
           the latch so a promotion splitting this loop cannot lose it. *)
        emit_iter_exec c ctxs info.Compiled.ordinal ~lo:iter ~hi:(iter + 1);
        (* Latch of a non-leaf DOALL loop: promotion-handler call guarded by
           a branch; the heartbeat visibility itself is the leaf poll's (or
           the interrupt flag), so no poll cost here. The iteration's own
           memory traffic is booked here too. *)
        let branch = costs.Sim.Cost_model.promotion_branch_cost in
        advance_mixed st ~work:0 ~bytes:info.Compiled.loop.Ir.Nest.bytes_per_iter ~extra:branch;
        charge st Sim.Metrics.Promotion_branch branch;
        let beat =
          Heartbeat.consume st.hb ~worker:(wid st) ~count_poll:false
          || st.cfg.Rt_config.force_promotion
        in
        if beat && st.cfg.Rt_config.promotion && not ts.no_promote && st.promo_left > 0 then begin
          match promote c ts ctxs info with
          | Some s -> result := Some s
          | None -> ctx.Ir.Ctx.lo <- iter + 1
        end
        else ctx.Ir.Ctx.lo <- iter + 1
  done;
  match !result with Some s -> s | None -> Done

and run_segments :
    'e.
    'e nest_handle ->
    task_state ->
    Ir.Ctx.set ->
    'e Compiled.loop_info ->
    'e Ir.Nest.segment list ->
    int ->
    seg_result =
 fun c ts ctxs info segs iter ->
  let st = c.st in
  match segs with
  | [] -> Seg_ok
  | Ir.Nest.Stmt s :: rest ->
      add_work st (s.Ir.Nest.exec c.env ctxs iter);
      run_segments c ts ctxs info rest iter
  | Ir.Nest.Nested child :: rest ->
      let cinfo = c.nest.Compiled.infos.(child.Ir.Nest.ordinal) in
      if cinfo.Compiled.doall then begin
        let lo, hi = child.Ir.Nest.bounds c.env ctxs in
        Ir.Ctx.set_slice ctxs.(child.Ir.Nest.ordinal) ~lo ~hi;
        (* A fresh invocation (re)establishes the child's locals; a slice
           resumed by a leftover task keeps its partial state instead. *)
        (match child.Ir.Nest.init with
        | Some f -> f c.env ctxs.(child.Ir.Nest.ordinal).Ir.Ctx.locals
        | None -> ());
        emit_slice_enter c ctxs child.Ir.Nest.ordinal;
        overhead st Sim.Metrics.Lst_store (cm st).Sim.Cost_model.lst_store_cost;
        match run_slice c ts ctxs child.Ir.Nest.ordinal with
        | Done -> run_segments c ts ctxs info rest iter
        | Promoted j -> Seg_promoted j
      end
      else begin
        let acc = ref 0 and acc_bytes = ref 0 in
        serial_loop c ctxs child acc acc_bytes;
        advance_mixed st ~work:!acc ~bytes:!acc_bytes ~extra:0;
        run_segments c ts ctxs info rest iter
      end

(* The promotion handler: outer-loop-first split of the current context
   chain, task creation, clone-optimized join. *)
and promote :
    'e. 'e nest_handle -> task_state -> Ir.Ctx.set -> 'e Compiled.loop_info -> status option =
 fun c ts ctxs cur ->
  let st = c.st in
  let ts_forbidden = ts.forbidden in
  (* splitting an ancestor needs its compiled leftover task; with
     Algorithm 1's leaves-only enumeration, promotions at non-leaf latches
     can only split the interrupted loop itself *)
  let statically_splittable o =
    c.nest.Compiled.infos.(o).Compiled.doall
    && (o = cur.Compiled.ordinal
       || Compiled.find_leftover c.nest ~li:cur.Compiled.ordinal ~lj:o <> None)
  in
  let splittable o = statically_splittable o && Ir.Ctx.remaining ctxs.(o) >= 1 in
  (* Only the suffix of the chain below the task's ownership boundary is a
     legal split target: contexts at or above [forbidden] are frozen
     snapshots whose remaining iterations belong to the spawning task. *)
  let chain = Sched.Policy.owned_suffix ~forbidden:ts_forbidden cur.Compiled.chain_from_root in
  let policy =
    if st.sb.Sim_backend.bug = Some Sim_backend.Promote_innermost then
      (* Seeded bug: silently invert the configured policy's direction. *)
      Sched.Policy.invert st.cfg.Rt_config.policy
    else st.cfg.Rt_config.policy
  in
  let target = Sched.Policy.choose_target ~policy ~splittable chain in
  match target with
  | None -> None
  | Some tgt ->
      (* A metered promotion is spent only when a split actually happens:
         beats with no eligible candidate cost nothing. *)
      if st.promo_left <> Stdlib.max_int then st.promo_left <- st.promo_left - 1;
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
      overhead st Sim.Metrics.Promotion (cm st).Sim.Cost_model.promotion_handler_cost;
      let tctx = ctxs.(tgt) in
      let rem_lo = tctx.Ir.Ctx.lo + 1 and rem_hi = tctx.Ir.Ctx.hi in
      (* Consume the remaining iterations from the running task; everything
         from here on belongs to the spawned tasks. *)
      tctx.Ir.Ctx.hi <- tctx.Ir.Ctx.lo + 1;
      let mid = Sched.Policy.split_point ~lo:rem_lo ~hi:rem_hi in
      let join = S.new_join st.sc in
      let reduction = tinfo.Compiled.loop.Ir.Nest.reduction in
      let spawn_slice lo hi =
        if hi > lo then begin
          let nctxs = Ir.Ctx.copy_set ctxs in
          Ir.Ctx.refresh_subtree nctxs ~ordinals:tinfo.Compiled.subtree ~specs:c.nest.Compiled.specs;
          Ir.Ctx.set_slice nctxs.(tgt) ~lo ~hi;
          (match tinfo.Compiled.loop.Ir.Nest.init with
          | Some f -> f c.env nctxs.(tgt).Ir.Ctx.locals
          | None -> ());
          S.add_pending join;
          S.push_task st.sc
            (S.mk_task st.sc (fun () ->
                 let ts' = fresh_task_state c in
                 ts'.forbidden <- Option.value ~default:(-1) tinfo.Compiled.parent;
                 (match run_slice c ts' nctxs tgt with
                 | Done | Promoted _ -> ());
                 (match reduction with
                 | Some combine ->
                     overhead st Sim.Metrics.Reduction (reduction_cost c.nest.Compiled.specs.(tgt));
                     combine tctx.Ir.Ctx.locals nctxs.(tgt).Ir.Ctx.locals
                 | None -> ());
                 S.finish_join st.sc join))
        end
      in
      spawn_slice rem_lo mid;
      spawn_slice mid rem_hi;
      if tgt <> cur.Compiled.ordinal then begin
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
                S.add_pending join;
                S.push_task st.sc
                  (S.mk_task st.sc (fun () ->
                       run_leftover c ~no_promote:false lctxs leftover;
                       S.finish_join st.sc join));
                if
                  st.sb.Sim_backend.bug = Some Sim_backend.Duplicate_leftover
                  && not st.sb.Sim_backend.bug_fired
                then begin
                  (* Seeded bug: the leftover is pushed twice; its iterations
                     execute twice (the duplicate gets its own context copy
                     so both runs cover the full range). *)
                  st.sb.Sim_backend.bug_fired <- true;
                  let dctxs = Ir.Ctx.copy_set lctxs in
                  S.add_pending join;
                  S.push_task st.sc
                    (S.mk_task st.sc (fun () ->
                         run_leftover c ~no_promote:false dctxs leftover;
                         S.finish_join st.sc join))
                end
            | Rt_config.Inline ->
                (* TPAL: the leftover stays on the promoting task's critical
                   path — executed here, inside the handler, before the join;
                   it cannot be stolen, but its loops keep their promotion
                   points. *)
                run_leftover c ~no_promote:false lctxs leftover)
      end;
      S.join_wait st.sc join;
      Some (if tgt = cur.Compiled.ordinal then Done else Promoted tgt)

and run_leftover : 'e. 'e nest_handle -> no_promote:bool -> Ir.Ctx.set -> Compiled.leftover -> unit
    =
 fun c ~no_promote ctxs leftover ->
  let st = c.st in
  emit st Obs.Trace.Leftover_run;
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
        match run_segments c ts ctxs info segs ctxs.(of_).Ir.Ctx.lo with
        | Seg_ok ->
            (* The tail just completed the in-flight iteration of [of_] that
               the promotion interrupted — it is only now fully executed. *)
            emit_iter_exec c ctxs of_ ~lo:ctxs.(of_).Ir.Ctx.lo ~hi:(ctxs.(of_).Ir.Ctx.lo + 1);
            Sched.Leftover_walk.Next
        | Seg_promoted j -> Sched.Leftover_walk.Skip_past j)
  in
  try Sched.Leftover_walk.run ~steps ~is_call ~exec
  with Sched.Leftover_walk.Missing_call j ->
    raise (Internal_error (Printf.sprintf "leftover skip: no Call_slice %d" j))

(* ------------------------------------------------------------------ *)
(* Top level.                                                           *)
(* ------------------------------------------------------------------ *)

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
  overhead st Sim.Metrics.Lst_store (cm st).Sim.Cost_model.lst_store_cost;
  let ts = fresh_task_state c in
  (match run_slice c ts ctxs root with
  | Done -> ()
  | Promoted _ -> raise (Internal_error "root slice reported an ancestor promotion"));
  match rinfo.Compiled.loop.Ir.Nest.commit with Some f -> f env ctxs | None -> ()

let run_program ?(request = Run_request.default) (cfg : Rt_config.t)
    (compiled : 'e Pipeline.program) : Sim.Run_result.t =
  let program = compiled.Pipeline.source in
  let env = program.Ir.Program.make_env () in
  let eng = Sim.Engine.create ~seed:cfg.Rt_config.seed ~num_workers:cfg.Rt_config.workers () in
  let metrics = Sim.Metrics.create () in
  (* On resume the request's sink is muted until the replay passes the
     pause boundary: the observer already saw every earlier event during
     the original episodes, so the per-episode streams tile the
     uninterrupted stream exactly once. The counting sink is NOT gated —
     the replay re-derives the counters from cycle 0, which is exactly
     what makes the final metrics byte-identical to an uninterrupted
     run. *)
  let resuming = Option.is_some request.Run_request.resume_from in
  let gate = ref (not resuming) in
  let observer =
    if resuming && Obs.Trace.Sink.enabled request.Run_request.trace then
      Obs.Trace.Sink.fn (fun ~time ~worker ev ->
          if !gate then Obs.Trace.Sink.emit request.Run_request.trace ~time ~worker ev)
    else request.Run_request.trace
  in
  (* Every runtime event flows through one tee: the counting sink keeps
     the scalar counters; the request's sink is whatever the caller wants
     to observe (usually null). *)
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
  let st =
    {
      cfg;
      eng;
      hb;
      metrics;
      trace;
      capture;
      inj;
      sb;
      sc = S.create sb;
      ac = Hashtbl.create 64;
      bus = Sim.Membus.create ~bytes_per_cycle:cfg.Rt_config.cost.Sim.Cost_model.dram_bytes_per_cycle;
      exec_epoch = 0;
      live_slices =
        (if resuming || Option.is_some request.Run_request.pause_at then
           Some (Array.make cfg.Rt_config.workers [])
         else None);
      promo_left =
        (match request.Run_request.resume_from with
        | Some ck -> (
            (* The replay restarts from cycle 0 under the first episode's
               grant; this episode's own grant applies at the boundary. *)
            match ck.Sim.Checkpoint_state.granted with
            | Some g -> Stdlib.max 0 g
            | None -> Stdlib.max_int)
        | None -> (
            match request.Run_request.promotion_budget with
            | Some b -> Stdlib.max 0 b
            | None -> Stdlib.max_int));
    }
  in
  Sim.Engine.set_diagnostics eng (fun w ->
      Printf.sprintf " deque=%d depth=%d%s"
        (Sim.Deque.length st.sb.Sim_backend.deques.(w))
        (S.depth st.sc).(w)
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
      (S.depth st.sc).(0) <- 1;
      Heartbeat.set_busy hb ~worker:0 true;
      let cpu =
        {
          Ir.Program.exec = (fun nest -> exec_nest st compiled env nest);
          advance = (fun cyc -> add_work st cyc);
        }
      in
      let t0 = Sim.Engine.now eng in
      program.Ir.Program.driver env cpu;
      if st.capture && Sim.Engine.now eng > t0 then
        emit st (Obs.Trace.Interval { t0; kind = "driver" });
      (S.depth st.sc).(0) <- 0;
      Heartbeat.set_busy hb ~worker:0 false;
      S.set_finished st.sc;
      Heartbeat.stop hb;
      Sim.Engine.unpark_all eng
    end
    else S.scavenge st.sc
  in
  (* Observational state at the pause boundary the engine just stopped at.
     Every field is a pure function of the dispatch history, so an
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
      rng_state = Sim.Sim_rng.state (Sim.Engine.rng eng);
      next_task_id = S.next_task_id st.sc;
      work_cycles = metrics.Sim.Metrics.work_cycles;
      promotions_used = metrics.Sim.Metrics.promotions;
      granted;
      regrants;
      clocks = Array.init cfg.Rt_config.workers (fun w -> Sim.Engine.clock_of eng w);
      deques =
        Array.map
          (fun d -> List.map (fun (t : Sched.Task.t) -> t.Sched.Task.id) (Sim.Deque.to_list d))
          st.sb.Sim_backend.deques;
      slices;
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
                  ~episode:1 ~granted:request.Run_request.promotion_budget ~regrants:[])
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
               if !ok && grant >= 0 then st.promo_left <- grant
             end)
           ck.Sim.Checkpoint_state.regrants;
         if !ok then run_to ck.Sim.Checkpoint_state.at_cycle;
         if !ok then begin
           let derived =
             checkpoint_now ~at_cycle:ck.Sim.Checkpoint_state.at_cycle
               ~episode:ck.Sim.Checkpoint_state.episode
               ~granted:ck.Sim.Checkpoint_state.granted
               ~regrants:ck.Sim.Checkpoint_state.regrants
           in
           if not (Sim.Checkpoint_state.equal derived ck) then
             diverged
               (Printf.sprintf "replayed state %s does not match checkpoint %s"
                  (Sim.Checkpoint_state.digest derived)
                  (Sim.Checkpoint_state.digest ck))
           else begin
             (* The replay reproduced the paused state exactly: open the
                gate, apply this episode's grant (None keeps the remaining
                balance, which is what byte-identical continuation needs),
                and run for real. *)
             gate := true;
             let applied =
               match request.Run_request.promotion_budget with
               | Some g ->
                   st.promo_left <- Stdlib.max 0 g;
                   Stdlib.max 0 g
               | None -> -1
             in
             (match request.Run_request.pause_at with
             | Some p when p > ck.Sim.Checkpoint_state.at_cycle -> Sim.Engine.set_pause_at eng p
             | Some _ | None -> Sim.Engine.clear_pause eng);
             Sim.Engine.continue_run eng;
             if Sim.Engine.paused eng then
               termination :=
                 Sim.Run_result.Paused
                   (checkpoint_now
                      ~at_cycle:(Option.get request.Run_request.pause_at)
                      ~episode:(ck.Sim.Checkpoint_state.episode + 1)
                      ~granted:ck.Sim.Checkpoint_state.granted
                      ~regrants:
                        (ck.Sim.Checkpoint_state.regrants
                        @ [ (ck.Sim.Checkpoint_state.at_cycle, applied) ]))
           end
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
