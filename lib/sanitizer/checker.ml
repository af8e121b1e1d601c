type invariant =
  | Work_conservation
  | Deque_discipline
  | Promotion_policy
  | Chunk_consistency
  | Clock_sanity
  | Job_conservation
  | Budget_conservation
  | Resume_conservation

let invariant_name = function
  | Work_conservation -> "work-conservation"
  | Deque_discipline -> "deque-discipline"
  | Promotion_policy -> "promotion-policy"
  | Chunk_consistency -> "chunk-consistency"
  | Clock_sanity -> "clock-sanity"
  | Job_conservation -> "job-conservation"
  | Budget_conservation -> "budget-conservation"
  | Resume_conservation -> "resume-conservation"

type violation = {
  invariant : invariant;
  time : int;
  worker : int;
  message : string;
  window : Obs.Trace.record list;
}

exception Violation of violation

type config = { policy : Hbc_core.Rt_config.promotion_policy; ac_target_polls : int }

let config_of_rt (cfg : Hbc_core.Rt_config.t) =
  { policy = cfg.Hbc_core.Rt_config.policy; ac_target_polls = cfg.Hbc_core.Rt_config.ac_target_polls }

module IM = Map.Make (Int)

(* Per-invocation coverage: [covered] maps each executed run's [lo] to its
   [hi]. Runs are disjoint, inside [s_lo, s_hi), and coalesced: no run ends
   where the next begins, so an in-order tiling stays a single binding. *)
type slice_state = { s_lo : int; s_hi : int; mutable covered : int IM.t }

(* Task lifecycle replayed from the deque records. *)
type task_phase = Pushed | Taken | Executed

(* Serve-mode job lifecycle replayed from the Job_* records; [J_terminal]
   carries the terminal state name for duplicate-termination messages.
   [granted] accumulates across pause/resume episodes — a resumed job's
   total promotion use is checked against the sum of every grant it drew
   — and [episodes] counts completed pause/resume episodes so a
   [Job_resumed] record claiming the wrong episode is flagged. *)
type job_phase =
  | J_submitted
  | J_admitted
  | J_started of { granted : int; episodes : int }
  | J_checkpointed of { granted : int; episodes : int }
  | J_terminal of string

type t = {
  cfg : config;
  strict : bool;
  max_violations : int;
  (* The violation window: the last records as a ring of slots indexed by
     [seq] modulo its length, turned into records only when a violation
     copies it out. A linked queue of records would not do: each push
     writes into the previous cell, so once one cell reaches the major heap
     every later record is promoted after it. *)
  win_time : int array;
  win_worker : int array;
  win_event : Obs.Trace.event array;
  mutable seq : int;
  mutable records : int;
  mutable last_time : int;
  slices : (int * int * int, slice_state) Hashtbl.t;  (* (nest, ord, key) *)
  tasks : (int, task_phase) Hashtbl.t;
  shadow : (int, int Sim.Deque.t) Hashtbl.t;  (* worker -> shadow deque of ids *)
  last_interval_end : (int, int) Hashtbl.t;  (* worker -> end of last Interval *)
  jobs : (int, int * job_phase) Hashtbl.t;  (* job -> (tenant, phase) *)
  tenant_balance : (int, int) Hashtbl.t;  (* tenant -> metered promotion balance *)
  mutable kept : violation list;  (* newest first *)
  mutable count : int;
  mutable finished : bool;
}

let create ?(strict = false) ?(window = 32) ?(max_violations = 100) cfg =
  let window = Stdlib.max 1 window in
  {
    cfg;
    strict;
    max_violations;
    win_time = Array.make window 0;
    win_worker = Array.make window 0;
    win_event = Array.make window Obs.Trace.Poll;
    seq = 0;
    records = 0;
    last_time = 0;
    slices = Hashtbl.create 64;
    tasks = Hashtbl.create 64;
    jobs = Hashtbl.create 16;
    tenant_balance = Hashtbl.create 8;
    shadow = Hashtbl.create 8;
    last_interval_end = Hashtbl.create 8;
    kept = [];
    count = 0;
    finished = false;
  }

(* The window's records, oldest first, ending at the latest one. *)
let window_records t =
  let cap = Array.length t.win_time in
  let first = Stdlib.max 1 (t.seq - cap + 1) in
  List.init (t.seq - first + 1) (fun k ->
      let seq = first + k in
      let i = seq mod cap in
      { Obs.Trace.seq; time = t.win_time.(i); worker = t.win_worker.(i); event = t.win_event.(i) })

let violate t ~time ~worker invariant message =
  let v = { invariant; time; worker; message; window = window_records t } in
  t.count <- t.count + 1;
  if List.length t.kept < t.max_violations then t.kept <- v :: t.kept;
  if t.strict then raise (Violation v)

let shadow_deque t worker =
  match Hashtbl.find_opt t.shadow worker with
  | Some d -> d
  | None ->
      let d = Sim.Deque.create () in
      Hashtbl.add t.shadow worker d;
      d

let phase_name = function Pushed -> "enqueued" | Taken -> "taken" | Executed -> "executed"

(* Insert [lo, hi) into the coverage map, merged with the runs it
   touches, or report the first covered run it overlaps. Only the
   predecessor (the last run starting at or before [lo]) and the successor
   (the first run starting after [lo]) can overlap or touch it: O(log n). *)
let insert_interval ss ~lo ~hi =
  let pred = IM.find_last_opt (fun a -> a <= lo) ss.covered in
  let succ = IM.find_first_opt (fun a -> a > lo) ss.covered in
  match (pred, succ) with
  | Some (a, b), _ when lo < b -> Some (a, b)
  | _, Some (a, b) when a < hi -> Some (a, b)
  | _ ->
      (* Merging into the predecessor rebinds its key, so only a merged
         successor needs removing. *)
      let lo = match pred with Some (a, b) when b = lo -> a | _ -> lo in
      let hi, m =
        match succ with
        | Some (a, b) when a = hi -> (b, IM.remove a ss.covered)
        | _ -> (hi, ss.covered)
      in
      ss.covered <- IM.add lo hi m;
      None

let on_slice_enter t ~time ~worker ~nest ~ord ~key ~lo ~hi =
  let k = (nest, ord, key) in
  match Hashtbl.find_opt t.slices k with
  | Some _ ->
      violate t ~time ~worker Work_conservation
        (Printf.sprintf "slice invocation (nest %d, loop %d, key %d) entered twice" nest ord key)
  | None -> Hashtbl.add t.slices k { s_lo = lo; s_hi = hi; covered = IM.empty }

let on_iter_exec t ~time ~worker ~nest ~ord ~key ~lo ~hi =
  let k = (nest, ord, key) in
  match Hashtbl.find_opt t.slices k with
  | None ->
      violate t ~time ~worker Work_conservation
        (Printf.sprintf "iterations [%d, %d) executed for unknown slice invocation (nest %d, loop %d, key %d)"
           lo hi nest ord key)
  | Some ss ->
      if lo < ss.s_lo || hi > ss.s_hi then
        violate t ~time ~worker Work_conservation
          (Printf.sprintf
             "iterations [%d, %d) executed outside slice bounds [%d, %d) (nest %d, loop %d)" lo hi
             ss.s_lo ss.s_hi nest ord)
      else
        match insert_interval ss ~lo ~hi with
        | None -> ()
        | Some (a, b) ->
            violate t ~time ~worker Work_conservation
              (Printf.sprintf
                 "iterations [%d, %d) of (nest %d, loop %d) executed twice (overlap with [%d, %d))"
                 lo hi nest ord a b)

let on_task_pushed t ~time ~worker ~task =
  (match Hashtbl.find_opt t.tasks task with
  | Some _ ->
      violate t ~time ~worker Deque_discipline (Printf.sprintf "task %d pushed twice" task)
  | None -> Hashtbl.replace t.tasks task Pushed);
  Sim.Deque.push_bottom (shadow_deque t worker) task

let take t ~time ~worker ~task how =
  match Hashtbl.find_opt t.tasks task with
  | Some Pushed -> Hashtbl.replace t.tasks task Taken
  | Some (Taken | Executed) as p ->
      violate t ~time ~worker Deque_discipline
        (Printf.sprintf "task %d %s while already %s" task how
           (phase_name (Option.get p)))
  | None ->
      violate t ~time ~worker Deque_discipline
        (Printf.sprintf "task %d %s but was never pushed" task how)

let on_task_popped t ~time ~worker ~task =
  (match Sim.Deque.pop_bottom (shadow_deque t worker) with
  | Some id when id = task -> ()
  | Some id ->
      violate t ~time ~worker Deque_discipline
        (Printf.sprintf "owner pop of task %d does not match deque bottom (task %d)" task id)
  | None ->
      violate t ~time ~worker Deque_discipline
        (Printf.sprintf "owner pop of task %d from an empty deque" task));
  take t ~time ~worker ~task "popped"

let on_task_stolen t ~time ~worker ~task ~victim =
  if worker = victim then
    violate t ~time ~worker Deque_discipline
      (Printf.sprintf "worker %d stole task %d from its own deque" worker task);
  (match Sim.Deque.steal (shadow_deque t victim) with
  | Some id when id = task -> ()
  | Some id ->
      violate t ~time ~worker Deque_discipline
        (Printf.sprintf "steal of task %d does not match deque top (task %d) of worker %d" task id
           victim)
  | None ->
      violate t ~time ~worker Deque_discipline
        (Printf.sprintf "steal of task %d from empty deque of worker %d" task victim));
  take t ~time ~worker ~task "stolen"

let on_task_exec t ~time ~worker ~task =
  match Hashtbl.find_opt t.tasks task with
  | Some Taken -> Hashtbl.replace t.tasks task Executed
  | Some Executed ->
      violate t ~time ~worker Deque_discipline (Printf.sprintf "task %d executed twice" task)
  | Some Pushed ->
      violate t ~time ~worker Deque_discipline
        (Printf.sprintf "task %d executed while still enqueued" task)
  | None ->
      violate t ~time ~worker Deque_discipline
        (Printf.sprintf "task %d executed but was never pushed" task)

let on_promote_choice t ~time ~worker ~cur ~tgt ~chain =
  let eligible = List.filter (fun (_, s, rem) -> s && rem >= 1) chain in
  let expected =
    match t.cfg.policy with
    | Hbc_core.Rt_config.Outer_loop_first -> (
        match eligible with [] -> None | (o, _, _) :: _ -> Some o)
    | Hbc_core.Rt_config.Innermost_first -> (
        match List.rev eligible with [] -> None | (o, _, _) :: _ -> Some o)
  in
  match expected with
  | None ->
      violate t ~time ~worker Promotion_policy
        (Printf.sprintf "promotion at loop %d chose loop %d with no eligible candidate" cur tgt)
  | Some e when e <> tgt ->
      let dir =
        match t.cfg.policy with
        | Hbc_core.Rt_config.Outer_loop_first -> "outer-loop-first"
        | Hbc_core.Rt_config.Innermost_first -> "innermost-first"
      in
      violate t ~time ~worker Promotion_policy
        (Printf.sprintf "promotion at loop %d chose loop %d, but %s requires loop %d" cur tgt dir e)
  | Some _ -> ()

let on_chunk_decision t ~time ~worker ~key ~old_chunk ~min_polls ~chunk =
  (* Replay the executor's update rule with the same float operations. *)
  let ratio = Float.of_int min_polls /. Float.of_int t.cfg.ac_target_polls in
  let expected = Stdlib.max 1 (int_of_float (Float.round (Float.of_int old_chunk *. ratio))) in
  if chunk <> expected then
    violate t ~time ~worker Chunk_consistency
      (Printf.sprintf
         "chunk update %d -> %d (slice key %d) does not match rule max 1 (round (%d * %d / %d)) = %d"
         old_chunk chunk key old_chunk min_polls t.cfg.ac_target_polls expected)

(* ------------------------------------------------------------------ *)
(* Serve-mode invariants: job conservation and budget conservation.     *)
(* ------------------------------------------------------------------ *)

let job_phase_name = function
  | J_submitted -> "submitted"
  | J_admitted -> "admitted"
  | J_started _ -> "started"
  | J_checkpointed _ -> "checkpointed"
  | J_terminal s -> s

let balance_of t tenant = Option.value ~default:0 (Hashtbl.find_opt t.tenant_balance tenant)

let on_job_submitted t ~time ~worker ~job ~tenant =
  match Hashtbl.find_opt t.jobs job with
  | Some (_, phase) ->
      violate t ~time ~worker Job_conservation
        (Printf.sprintf "job %d submitted twice (already %s)" job (job_phase_name phase))
  | None -> Hashtbl.add t.jobs job (tenant, J_submitted)

let on_job_admitted t ~time ~worker ~job ~tenant =
  match Hashtbl.find_opt t.jobs job with
  | Some (_, J_submitted) -> Hashtbl.replace t.jobs job (tenant, J_admitted)
  | Some (_, phase) ->
      violate t ~time ~worker Job_conservation
        (Printf.sprintf "job %d admitted while %s" job (job_phase_name phase))
  | None ->
      violate t ~time ~worker Job_conservation
        (Printf.sprintf "job %d admitted but never submitted" job)

let on_job_shed t ~time ~worker ~job ~tenant ~reason =
  match Hashtbl.find_opt t.jobs job with
  | Some (_, J_submitted) -> Hashtbl.replace t.jobs job (tenant, J_terminal ("shed:" ^ reason))
  | Some (_, phase) ->
      violate t ~time ~worker Job_conservation
        (Printf.sprintf "job %d shed (%s) while %s — shedding is legal only at submission" job
           reason (job_phase_name phase))
  | None ->
      violate t ~time ~worker Job_conservation
        (Printf.sprintf "job %d shed (%s) but never submitted" job reason)

let on_job_started t ~time ~worker ~job ~tenant ~budget =
  (match Hashtbl.find_opt t.jobs job with
  | Some (_, J_admitted) ->
      Hashtbl.replace t.jobs job (tenant, J_started { granted = budget; episodes = 0 })
  | Some (_, phase) ->
      violate t ~time ~worker Job_conservation
        (Printf.sprintf "job %d started while %s" job (job_phase_name phase))
  | None ->
      violate t ~time ~worker Job_conservation
        (Printf.sprintf "job %d started but never admitted" job));
  let balance = balance_of t tenant - budget in
  Hashtbl.replace t.tenant_balance tenant balance;
  if balance < 0 then
    violate t ~time ~worker Budget_conservation
      (Printf.sprintf
         "tenant %d overdrew its promotion meter: grant %d drove the balance to %d" tenant budget
         balance)

(* Resume conservation: pause/resume episodes must alternate correctly —
   only a started job checkpoints, only a checkpointed job resumes, the
   resume's episode number matches the pauses that actually happened, and
   grants accumulate so the final promotion count is checked against the
   whole history. The exactly-once tiling of the iteration space across
   episodes is enforced by the per-job work-conservation checker, whose
   sink persists across episodes and sees each episode's events exactly
   once (resumed runs mute the replayed prefix). *)
let on_job_checkpointed t ~time ~worker ~job ~tenant ~at_cycle =
  match Hashtbl.find_opt t.jobs job with
  | Some (_, J_started { granted; episodes }) ->
      if at_cycle <= 0 then
        violate t ~time ~worker Resume_conservation
          (Printf.sprintf "job %d checkpointed at non-positive cycle %d" job at_cycle);
      Hashtbl.replace t.jobs job (tenant, J_checkpointed { granted; episodes = episodes + 1 })
  | Some (_, phase) ->
      violate t ~time ~worker Resume_conservation
        (Printf.sprintf "job %d checkpointed while %s" job (job_phase_name phase))
  | None ->
      violate t ~time ~worker Resume_conservation
        (Printf.sprintf "job %d checkpointed but never submitted" job)

let on_job_resumed t ~time ~worker ~job ~tenant ~episode ~budget =
  (match Hashtbl.find_opt t.jobs job with
  | Some (_, J_checkpointed { granted; episodes }) ->
      if episode <> episodes then
        violate t ~time ~worker Resume_conservation
          (Printf.sprintf "job %d resumed claiming episode %d but %d pause(s) happened" job
             episode episodes);
      Hashtbl.replace t.jobs job (tenant, J_started { granted = granted + budget; episodes })
  | Some (_, phase) ->
      violate t ~time ~worker Resume_conservation
        (Printf.sprintf "job %d resumed while %s (only a checkpointed job can resume)" job
           (job_phase_name phase))
  | None ->
      violate t ~time ~worker Resume_conservation
        (Printf.sprintf "job %d resumed but never submitted" job));
  let balance = balance_of t tenant - budget in
  Hashtbl.replace t.tenant_balance tenant balance;
  if balance < 0 then
    violate t ~time ~worker Budget_conservation
      (Printf.sprintf
         "tenant %d overdrew its promotion meter: resume grant %d drove the balance to %d" tenant
         budget balance)

let on_job_preempted t ~time ~worker ~job =
  match Hashtbl.find_opt t.jobs job with
  | Some (_, J_started _) -> ()
  | Some (_, phase) ->
      violate t ~time ~worker Job_conservation
        (Printf.sprintf "job %d preempted while %s" job (job_phase_name phase))
  | None ->
      violate t ~time ~worker Job_conservation
        (Printf.sprintf "job %d preempted but never admitted" job)

let on_job_finished t ~time ~worker ~job ~tenant ~state ~promotions =
  match Hashtbl.find_opt t.jobs job with
  | Some (_, (J_started { granted; _ } | J_checkpointed { granted; _ })) ->
      (* A checkpointed job may terminate without resuming (its episode
         budget ran out, or its refreshed deadline expired in the queue);
         either way the whole history's promotions are bounded by the
         accumulated grants. *)
      Hashtbl.replace t.jobs job (tenant, J_terminal state);
      if promotions > granted then
        violate t ~time ~worker Budget_conservation
          (Printf.sprintf "job %d used %d promotions against a grant of %d" job promotions granted)
  | Some (_, J_admitted) ->
      (* A queued job can expire at its deadline without ever starting; it
         must then have consumed nothing. *)
      Hashtbl.replace t.jobs job (tenant, J_terminal state);
      if promotions <> 0 then
        violate t ~time ~worker Budget_conservation
          (Printf.sprintf "job %d finished from the queue yet reports %d promotions" job promotions)
  | Some (_, phase) ->
      violate t ~time ~worker Job_conservation
        (Printf.sprintf "job %d finished (%s) while %s" job state (job_phase_name phase))
  | None ->
      violate t ~time ~worker Job_conservation
        (Printf.sprintf "job %d finished (%s) but never submitted" job state)

let on_budget_refill t ~tenant ~amount =
  Hashtbl.replace t.tenant_balance tenant (balance_of t tenant + amount)

let on_interval t ~time ~worker ~t0 =
  if t0 > time then
    violate t ~time ~worker Clock_sanity
      (Printf.sprintf "interval start %d after its own end %d" t0 time);
  let prev = Option.value ~default:0 (Hashtbl.find_opt t.last_interval_end worker) in
  if t0 < prev then
    violate t ~time ~worker Clock_sanity
      (Printf.sprintf "interval [%d, %d) overlaps the previous interval ending at %d on worker %d"
         t0 time prev worker);
  Hashtbl.replace t.last_interval_end worker (Stdlib.max prev time)

let on_event t ~time ~worker (ev : Obs.Trace.event) =
  t.seq <- t.seq + 1;
  t.records <- t.records + 1;
  let i = t.seq mod Array.length t.win_time in
  t.win_time.(i) <- time;
  t.win_worker.(i) <- worker;
  t.win_event.(i) <- ev;
  (* The engine dispatches fibers in global nondecreasing virtual-time
     order, so every emission — any worker, any source — must carry a
     time >= the previous one. *)
  if time < t.last_time then
    violate t ~time ~worker Clock_sanity
      (Printf.sprintf "record time %d went backwards (previous record at %d)" time t.last_time);
  t.last_time <- Stdlib.max t.last_time time;
  match ev with
  | Obs.Trace.Slice_enter { nest; ord; key; lo; hi } ->
      on_slice_enter t ~time ~worker ~nest ~ord ~key ~lo ~hi
  | Obs.Trace.Iter_exec { nest; ord; key; lo; hi } ->
      on_iter_exec t ~time ~worker ~nest ~ord ~key ~lo ~hi
  | Obs.Trace.Task_pushed { task } -> on_task_pushed t ~time ~worker ~task
  | Obs.Trace.Task_popped { task } -> on_task_popped t ~time ~worker ~task
  | Obs.Trace.Task_stolen { task; victim } -> on_task_stolen t ~time ~worker ~task ~victim
  | Obs.Trace.Task_exec { task } -> on_task_exec t ~time ~worker ~task
  | Obs.Trace.Promote_choice { cur; tgt; chain } -> on_promote_choice t ~time ~worker ~cur ~tgt ~chain
  | Obs.Trace.Chunk_decision { key; old_chunk; min_polls; chunk } ->
      on_chunk_decision t ~time ~worker ~key ~old_chunk ~min_polls ~chunk
  | Obs.Trace.Interval { t0; kind = _ } -> on_interval t ~time ~worker ~t0
  | Obs.Trace.Job_submitted { job; tenant } -> on_job_submitted t ~time ~worker ~job ~tenant
  | Obs.Trace.Job_admitted { job; tenant; queued = _ } ->
      on_job_admitted t ~time ~worker ~job ~tenant
  | Obs.Trace.Job_shed { job; tenant; reason } -> on_job_shed t ~time ~worker ~job ~tenant ~reason
  | Obs.Trace.Job_started { job; tenant; budget } ->
      on_job_started t ~time ~worker ~job ~tenant ~budget
  | Obs.Trace.Job_preempted { job; tenant = _ } -> on_job_preempted t ~time ~worker ~job
  | Obs.Trace.Job_checkpointed { job; tenant; at_cycle } ->
      on_job_checkpointed t ~time ~worker ~job ~tenant ~at_cycle
  | Obs.Trace.Job_resumed { job; tenant; episode; budget } ->
      on_job_resumed t ~time ~worker ~job ~tenant ~episode ~budget
  | Obs.Trace.Job_finished { job; tenant; state; promotions } ->
      on_job_finished t ~time ~worker ~job ~tenant ~state ~promotions
  | Obs.Trace.Budget_refill { tenant; amount } -> on_budget_refill t ~tenant ~amount
  | _ -> ()

let sink t = Obs.Trace.Sink.fn (fun ~time ~worker ev -> on_event t ~time ~worker ev)

let finish t =
  if not t.finished then begin
    t.finished <- true;
    let time = t.last_time and worker = -1 in
    (* Work conservation: every slice invocation's range must be tiled. *)
    let slices = Hashtbl.fold (fun k s acc -> (k, s) :: acc) t.slices [] in
    let slices = List.sort compare slices in
    List.iter
      (fun ((nest, ord, key), ss) ->
        let rec gaps pos = function
          | [] -> if pos < ss.s_hi then [ (pos, ss.s_hi) ] else []
          | (a, b) :: rest -> if pos < a then (pos, a) :: gaps b rest else gaps b rest
        in
        List.iter
          (fun (a, b) ->
            violate t ~time ~worker Work_conservation
              (Printf.sprintf "iterations [%d, %d) of (nest %d, loop %d, key %d) never executed" a
                 b nest ord key))
          (gaps ss.s_lo (IM.bindings ss.covered)))
      slices;
    (* Deque discipline: no task may remain unexecuted. *)
    let tasks = Hashtbl.fold (fun id p acc -> (id, p) :: acc) t.tasks [] in
    List.iter
      (fun (id, p) ->
        match p with
        | Executed -> ()
        | Pushed ->
            violate t ~time ~worker Deque_discipline
              (Printf.sprintf "task %d pushed but never executed" id)
        | Taken ->
            violate t ~time ~worker Deque_discipline
              (Printf.sprintf "task %d taken from its deque but never executed (lost)" id))
      (List.sort compare tasks);
    (* Job conservation: every submitted job must have reached exactly one
       terminal state (shed at submission, or a Job_finished accounting). *)
    let jobs = Hashtbl.fold (fun id jp acc -> (id, jp) :: acc) t.jobs [] in
    List.iter
      (fun (id, (tenant, phase)) ->
        match phase with
        | J_terminal _ -> ()
        | J_checkpointed { episodes; _ } ->
            violate t ~time ~worker Resume_conservation
              (Printf.sprintf
                 "job %d (tenant %d) checkpointed (episode %d) but never resumed or finished" id
                 tenant episodes)
        | J_submitted | J_admitted | J_started _ ->
            violate t ~time ~worker Job_conservation
              (Printf.sprintf "job %d (tenant %d) never terminated: still %s at end of run" id
                 tenant (job_phase_name phase)))
      (List.sort compare jobs)
  end

let violations t = List.rev t.kept

let violation_count t = t.count

let ok t = t.count = 0

let records_seen t = t.records

let summary t =
  if t.count = 0 then
    Printf.sprintf "sanitizer: OK (%d records, %d slices, %d tasks)" t.records
      (Hashtbl.length t.slices) (Hashtbl.length t.tasks)
  else
    match List.rev t.kept with
    | [] -> Printf.sprintf "sanitizer: %d violation(s)" t.count
    | v :: _ ->
        Printf.sprintf "sanitizer: %d violation(s); first [%s] at t=%d w=%d: %s" t.count
          (invariant_name v.invariant) v.time v.worker v.message
