(* The one front door for running a program: pick an engine, pick a
   backend, get a {!Sim.Run_result.t}. Dispatch is total over
   (engine × backend); the combinations a backend cannot express fail
   loudly with [invalid_arg] instead of silently falling back. *)

type engine =
  | Hbc of Hbc_core.Rt_config.t
  | Tpal of { chunk : int }
  | Openmp of Baselines.Openmp.config
  | Serial
  | Hybrid of { hbc : Hbc_core.Rt_config.t; omp : Baselines.Openmp.config }

let hbc = Hbc Hbc_core.Rt_config.hbc

let hybrid = Hybrid { hbc = Hbc_core.Rt_config.hbc; omp = Baselines.Openmp.dynamic () }

let run ?(request = Hbc_core.Run_request.default) ?backend ?beat engine
    (program : 'e Ir.Program.t) : Sim.Run_result.t =
  let backend = Option.value backend ~default:request.Hbc_core.Run_request.backend in
  (* The request carries the backend it actually ran on — journal keys and
     result provenance stay truthful even when the label overrode it. *)
  let request = { request with Hbc_core.Run_request.backend } in
  match (backend, engine) with
  | Sched.Policy.Sim, Hbc cfg -> Hbc_core.Executor.run ~request cfg program
  | Sched.Policy.Domains, Hbc cfg -> Hb_parallel.Native_run.run ~request ?beat cfg program
  | Sched.Policy.Sim, Tpal { chunk } ->
      Hbc_core.Executor.run ~request (Hbc_core.Rt_config.tpal ~chunk) program
  | Sched.Policy.Domains, Tpal { chunk } ->
      Hb_parallel.Native_run.run ~request ?beat (Hbc_core.Rt_config.tpal ~chunk) program
  | Sched.Policy.Sim, Openmp cfg -> Baselines.Openmp.run_program ~request cfg program
  | (Sched.Policy.Sim | Sched.Policy.Domains), Serial ->
      (* The sequential reference has no scheduler; it is backend-neutral. *)
      Baselines.Serial_exec.run_program ~request program
  | Sched.Policy.Sim, Hybrid { hbc; omp } ->
      Baselines.Hybrid.run_program ~hbc ~omp program
  | Sched.Policy.Domains, (Openmp _ | Hybrid _) ->
      invalid_arg
        "Sched_run.run: the OpenMP-model baselines are virtual-time simulations; run them on the \
         sim backend"

(* Only the heartbeat engines run on domains; everything else, the
   sequential reference included, counts virtual cycles. *)
let makespan_in_wall_us backend engine =
  match (backend, engine) with
  | Sched.Policy.Domains, (Hbc _ | Tpal _) -> true
  | Sched.Policy.Domains, (Serial | Openmp _ | Hybrid _) | Sched.Policy.Sim, _ -> false

let makespan_lines ~backend engine (r : Sim.Run_result.t) ~wall_us ~workers =
  let line label value = Printf.sprintf "%-17s: %s" label value in
  if makespan_in_wall_us backend engine then
    [
      line "makespan"
        (Printf.sprintf "%d us wall on %d domains" r.Sim.Run_result.makespan workers);
    ]
  else
    [
      line "makespan"
        (Printf.sprintf "%d cycles (simulated serial reference)" r.Sim.Run_result.makespan);
      line "wall" (Printf.sprintf "%d us measured around Sched_run.run" wall_us);
    ]
