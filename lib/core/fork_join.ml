type task = { run : unit -> unit }

(* One latent fork: [promote] turns its deferred branch into a stealable
   task; [None] once promoted or completed inline. *)
type frame = { mutable promote : (unit -> unit) option }

type fj_state = {
  cfg : Rt_config.t;
  eng : Sim.Engine.t;
  hb : Heartbeat.t;
  metrics : Sim.Metrics.t;
  deques : task Sim.Deque.t array;
  bus : Sim.Membus.t;
  mutable last_pusher : int;
  fork_countdown : int array;  (* per worker: forks until the next poll *)
  frames : frame list ref array;  (* per worker: latent forks, newest first *)
  mutable finished : bool;
  mutable promoted_forks : int;
  mutable sequential_forks : int;
}

type ctx = { st : fj_state }

type result = {
  makespan : int;
  work_cycles : int;
  metrics : Sim.Metrics.t;
  promoted_forks : int;
  sequential_forks : int;
}

let cm st = st.cfg.Rt_config.cost

let wid st = Sim.Engine.worker_id st.eng

let overhead st kind c =
  if c > 0 then begin
    Sim.Engine.advance st.eng c;
    Sim.Metrics.add_overhead st.metrics kind c
  end

let advance ctx c =
  let st = ctx.st in
  st.metrics.Sim.Metrics.work_cycles <- st.metrics.Sim.Metrics.work_cycles + c;
  if c > 0 then Sim.Engine.advance st.eng c

let advance_bytes ctx ~compute ~bytes =
  let st = ctx.st in
  st.metrics.Sim.Metrics.work_cycles <- st.metrics.Sim.Metrics.work_cycles + compute;
  let total = Sim.Membus.serve st.bus ~now:(Sim.Engine.now st.eng) ~compute ~bytes in
  if total > 0 then Sim.Engine.advance st.eng total;
  if total > compute then Sim.Metrics.add_overhead st.metrics Sim.Metrics.Membus (total - compute)

let wake_one st =
  let n = Array.length st.deques in
  let start = Sim.Sim_rng.int (Sim.Engine.rng st.eng) n in
  let rec find k =
    if k < n then begin
      let w = (start + k) mod n in
      if Sim.Engine.is_parked st.eng w then Sim.Engine.unpark st.eng w else find (k + 1)
    end
  in
  find 0

let push_task st task =
  Sim.Deque.push_bottom st.deques.(wid st) task;
  st.last_pusher <- wid st;
  st.metrics.Sim.Metrics.tasks_spawned <- st.metrics.Sim.Metrics.tasks_spawned + 1;
  overhead st Sim.Metrics.Promotion (cm st).Sim.Cost_model.deque_push_cost;
  wake_one st

let try_steal st =
  let n = Array.length st.deques in
  let w = wid st in
  let probe v =
    st.metrics.Sim.Metrics.steal_attempts <- st.metrics.Sim.Metrics.steal_attempts + 1;
    overhead st Sim.Metrics.Steal (cm st).Sim.Cost_model.steal_attempt_cost;
    match Sim.Deque.steal st.deques.(v) with
    | Some t ->
        st.metrics.Sim.Metrics.steals <- st.metrics.Sim.Metrics.steals + 1;
        overhead st Sim.Metrics.Steal (cm st).Sim.Cost_model.steal_success_cost;
        Some t
    | None -> None
  in
  let rec attempt k =
    if k = 0 || n = 1 then None
    else begin
      let v = Sim.Sim_rng.int (Sim.Engine.rng st.eng) n in
      if v = w then attempt (k - 1)
      else match probe v with Some t -> Some t | None -> attempt (k - 1)
    end
  in
  if n > 1 && st.last_pusher <> w && not (Sim.Deque.is_empty st.deques.(st.last_pusher)) then
    match probe st.last_pusher with Some t -> Some t | None -> attempt 8
  else attempt 8

(* A task executes with its own latent-fork stack: promotions must never
   reach the frames of whatever invocation the worker interrupted. *)
let with_fresh_frames st f =
  let w = wid st in
  let saved = !(st.frames.(w)) in
  st.frames.(w) := [];
  Fun.protect ~finally:(fun () -> st.frames.(w) := saved) f

let run_task st task =
  Heartbeat.set_busy st.hb ~worker:(wid st) true;
  with_fresh_frames st task.run;
  Heartbeat.set_busy st.hb ~worker:(wid st) false

(* Outermost-first promotion: activate the OLDEST latent fork — the largest
   piece of deferred work, the recursive analogue of the loop runtime's
   outer-loop-first policy. *)
let promote_oldest st =
  let w = wid st in
  let rec oldest_latent acc = function
    | [] -> acc
    | f :: rest -> oldest_latent (if f.promote <> None then Some f else acc) rest
  in
  match oldest_latent None !(st.frames.(w)) with
  | None -> false
  | Some frame ->
      let p = Option.get frame.promote in
      frame.promote <- None;
      st.promoted_forks <- st.promoted_forks + 1;
      Sim.Metrics.promotion_at_level st.metrics 0;
      overhead st Sim.Metrics.Promotion (cm st).Sim.Cost_model.promotion_handler_cost;
      p ();
      true

(* fork2: the heart of heartbeat scheduling for recursion. A fork is a
   promotion-ready point; the branches run sequentially unless a heartbeat
   elapsed, in which case the right branch becomes a stealable task. *)
let forks_per_poll = 16

let fork2 : 'a 'b. ctx -> (ctx -> 'a) -> (ctx -> 'b) -> 'a * 'b =
 fun ctx f g ->
  let st = ctx.st in
  let costs = cm st in
  let w = wid st in
  (* Like the loop chunking transformation, the TSC poll is amortized over a
     fixed fork budget; the remaining forks only pay the guard branch. *)
  overhead st Sim.Metrics.Promotion_branch costs.Sim.Cost_model.promotion_branch_cost;
  st.fork_countdown.(w) <- st.fork_countdown.(w) - 1;
  if st.fork_countdown.(w) <= 0 then begin
    st.fork_countdown.(w) <- forks_per_poll;
    let poll = Heartbeat.poll_cost st.hb ~worker:w in
    if poll > 0 then overhead st Sim.Metrics.Poll poll;
    st.metrics.Sim.Metrics.polls <- st.metrics.Sim.Metrics.polls + 1;
    if Heartbeat.consume st.hb ~worker:w ~count_poll:false && st.cfg.Rt_config.promotion then
      ignore (promote_oldest st)
  end;
  (* Register this fork as latent parallelism and run the first branch; a
     later heartbeat (possibly deep inside [f]) may promote our deferred
     second branch into a real task. *)
  let cell = ref None in
  let pending = ref 0 in
  let owner = w in
  let frame = { promote = None } in
  frame.promote <-
    Some
      (fun () ->
        pending := 1;
        push_task st
          {
            run =
              (fun () ->
                cell := Some (g ctx);
                pending := 0;
                if Sim.Engine.worker_id st.eng <> owner then begin
                  st.metrics.Sim.Metrics.join_slow_paths <-
                    st.metrics.Sim.Metrics.join_slow_paths + 1;
                  overhead st Sim.Metrics.Join costs.Sim.Cost_model.join_slow_path_cost
                end;
                Sim.Engine.unpark st.eng owner);
          });
  st.frames.(w) := frame :: !(st.frames.(w));
  let a = f ctx in
  (* Unregister: we are back at this fork's join point. *)
  (st.frames.(w) :=
     match !(st.frames.(w)) with
     | top :: rest when top == frame -> rest
     | other -> List.filter (fun fr -> fr != frame) other);
  match frame.promote with
  | Some _ ->
      (* Fast path: never promoted; run the second branch inline with zero
         synchronization. *)
      frame.promote <- None;
      st.sequential_forks <- st.sequential_forks + 1;
      let b = g ctx in
      (a, b)
  | None ->
      (* Slow path: the branch became a task; help until it completes. *)
      while !pending > 0 do
        match Sim.Deque.pop_bottom st.deques.(wid st) with
        | Some t ->
            overhead st Sim.Metrics.Join costs.Sim.Cost_model.deque_pop_cost;
            with_fresh_frames st t.run
        | None -> (
            match try_steal st with
            | Some t -> with_fresh_frames st t.run
            | None -> if !pending > 0 then Sim.Engine.park st.eng)
      done;
      (a, Option.get !cell)

let scavenge st w =
  while not st.finished do
    match Sim.Deque.pop_bottom st.deques.(w) with
    | Some t -> run_task st t
    | None -> (
        match try_steal st with
        | Some t -> run_task st t
        | None -> if not st.finished then Sim.Engine.park st.eng)
  done

let run ?(cfg = Rt_config.default) main =
  let eng = Sim.Engine.create ~seed:cfg.Rt_config.seed ~num_workers:cfg.Rt_config.workers () in
  let metrics = Sim.Metrics.create () in
  let hb = Heartbeat.create cfg eng metrics in
  let st =
    {
      cfg;
      eng;
      hb;
      metrics;
      deques = Array.init cfg.Rt_config.workers (fun _ -> Sim.Deque.create ());
      bus = Sim.Membus.create ~bytes_per_cycle:cfg.Rt_config.cost.Sim.Cost_model.dram_bytes_per_cycle;
      last_pusher = 0;
      fork_countdown = Array.make cfg.Rt_config.workers 0;
      frames = Array.init cfg.Rt_config.workers (fun _ -> ref []);
      finished = false;
      promoted_forks = 0;
      sequential_forks = 0;
    }
  in
  Heartbeat.start hb;
  Sim.Engine.run eng (fun w ->
      if w = 0 then begin
        Heartbeat.set_busy hb ~worker:0 true;
        main { st };
        Heartbeat.set_busy hb ~worker:0 false;
        st.finished <- true;
        Heartbeat.stop hb;
        Sim.Engine.unpark_all eng
      end
      else scavenge st w);
  {
    makespan = Sim.Engine.max_time eng;
    work_cycles = metrics.Sim.Metrics.work_cycles;
    metrics;
    promoted_forks = st.promoted_forks;
    sequential_forks = st.sequential_forks;
  }
