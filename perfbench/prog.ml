(* Programs under measurement, their set-up, and the timing discipline
   every timed call follows: inputs are built before the timer starts and
   the heap is settled with a full major collection first. *)

let now = Unix.gettimeofday

(* A registry program with its compiled form and a pristine copy of its
   inputs. Each timed call gets a fresh copy ([fresh]), so a run that
   mutates its env never feeds the next run, and no call pays for input
   generation. *)
type t =
  | P : {
      name : string;
      source : 'e Ir.Program.t;
      compiled : 'e Hbc_core.Pipeline.program;
      fresh : unit -> 'e;
    }
      -> t

let name (P p) = p.name

type setup = { total : float; make_env : float; compile : float; reps : int }

(* Construct, build inputs for and compile every named program at
   [scale]. With [keep], also take each env's pristine copy. *)
let build names ~scale ~keep =
  let total = ref 0.0 and env_s = ref 0.0 and compile_s = ref 0.0 in
  let progs =
    List.map
      (fun name ->
        let t0 = now () in
        let (Ir.Program.Any source) =
          Span.with_ "workloads.registry.make" (fun () ->
              (Workloads.Registry.find name).Workloads.Registry.make scale)
        in
        let t1 = now () in
        let env = Span.with_ "workloads.make_env" source.Ir.Program.make_env in
        let t2 = now () in
        let compiled =
          Span.with_ "pipeline.compile_program" (fun () -> Hbc_core.Pipeline.compile_program source)
        in
        let t3 = now () in
        total := !total +. (t3 -. t0);
        env_s := !env_s +. (t2 -. t1);
        compile_s := !compile_s +. (t3 -. t2);
        (* Marshal gives a deep copy far cheaper than regenerating the
           inputs; an env that cannot be marshalled is rebuilt instead. *)
        let fresh =
          match if keep then Some (Marshal.to_string env []) else None with
          | Some bytes -> fun () -> Marshal.from_string bytes 0
          | None | (exception Invalid_argument _) -> source.Ir.Program.make_env
        in
        P { name; source; compiled; fresh })
      names
  in
  (progs, { total = !total; make_env = !env_s; compile = !compile_s; reps = 1 })

(* One set-up repetition: builds repeat until 10 ms have passed, so a
   set-up of microseconds is not timed alone; the figures are per build. *)
let repetition names ~scale =
  let rec go k t e c =
    let s = snd (build names ~scale ~keep:false) in
    let t = t +. s.total and e = e +. s.make_env and c = c +. s.compile in
    if t < 0.01 then go (k + 1) t e c
    else
      let k = float_of_int k in
      { total = t /. k; make_env = e /. k; compile = c /. k; reps = 1 }
  in
  let s = Span.with_ "setup.repetition" (fun () -> Span.quiet (fun () -> go 1 0.0 0.0 0.0)) in
  Gc.full_major ();
  s

(* Set up at least five times and for at least a second, then once more
   to keep the programs; the set-up figures are medians over the
   repetitions. *)
let setup names ~scale =
  let t0 = now () in
  let rec more stats =
    let k = List.length stats in
    if k >= 5 && (k >= 99 || now () -. t0 >= 1.0) then stats
    else more (repetition names ~scale :: stats)
  in
  let stats = more [] in
  let progs, _ = Span.with_ "setup" (fun () -> build names ~scale ~keep:true) in
  let med f = Metric.median (List.map f stats) in
  ( progs,
    {
      total = med (fun s -> s.total);
      make_env = med (fun s -> s.make_env);
      compile = med (fun s -> s.compile);
      reps = List.length stats;
    } )

let record_setup r (s : setup) =
  Metric.set r "setup_s" ~n:s.reps s.total;
  Metric.set r "workloads.make_env_s" ~n:s.reps s.make_env;
  Metric.set r "pipeline.compile_s" ~n:s.reps s.compile

(* {2 Heap}

   The major heap's size is sampled after every timed call; an
   operation's peak is its largest sample, and a run reports the median
   operation's peak. The process-wide high-water mark instead swings with
   where collections happen to fall. *)

let op_peak = ref 0.0

let sample_heap () =
  let mb = float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1e6 in
  op_peak := Float.max !op_peak mb

let take_peak () =
  let p = !op_peak in
  op_peak := 0.0;
  p

(* Time one operation after settling the heap: (seconds, result). *)
let timed_op f =
  Gc.full_major ();
  let t0 = now () in
  let x = f () in
  let dt = now () -. t0 in
  sample_heap ();
  (dt, x)

type exec =
  | Serial
  | Native of { cfg : Hbc_core.Rt_config.t; request : Hbc_core.Run_request.t }

(* The paper's default heartbeat, a 100 us interval timer. *)
let beat = Hb_parallel.Native_run.Wall_us 100.0

let native ?(request = Hbc_core.Run_request.default) ?(promotion = true) ~seed workers =
  Native
    { cfg = { Hbc_core.Rt_config.default with workers; seed; promotion }; request }

(* Time one call on a fresh env, after settling the heap:
   (seconds, result). *)
let timed (P p) exec =
  let env = p.fresh () in
  let source = { p.source with Ir.Program.make_env = (fun () -> env) } in
  timed_op (fun () ->
      match exec with
      | Serial ->
          Span.with_ "serial_exec.run_program" (fun () -> Baselines.Serial_exec.run_program source)
      | Native { cfg; request } ->
          Span.with_ "native_run.run_program" (fun () ->
              Hb_parallel.Native_run.run_program ~request ~beat cfg
                { p.compiled with Hbc_core.Pipeline.source }))

(* {2 Hardware ceiling}

   A raw [workers]-domain spin loop against the same total work on one
   domain: the best scaling this machine gives any OCaml program. *)

let spin iters =
  let x = ref 0 in
  for i = 1 to iters do
    x := Sys.opaque_identity (!x + (i land 7))
  done;
  !x

let spin_scaling =
  lazy
  (let workers = Domain.recommended_domain_count () in
  let total = 20_000_000 in
  let once () =
    let t0 = now () in
    ignore (spin total);
    let t1 = now () in
    let ds = List.init (workers - 1) (fun _ -> Domain.spawn (fun () -> spin (total / workers))) in
    ignore (spin (total / workers));
    List.iter (fun d -> ignore (Domain.join d)) ds;
    (t1 -. t0) /. (now () -. t1)
  in
  Metric.median (List.init 5 (fun _ -> once ())))

(* A fixed mix of hashing, sorting and arithmetic from the standard
   library alone, about 40 ms on an idle machine, run on [domains]
   domains at once. The host this benchmark was tuned on swings by up to
   2x within minutes, and at times leaves a run one of its two CPUs;
   timing an operation against this loop, run just before it on as many
   domains as the operation uses, cancels most of that swing. *)
let calibrate ?(domains = 1) () =
  let mix () =
    let h = Hashtbl.create 1024 in
    for i = 0 to 99_999 do
      Hashtbl.replace h ((i * 7919) land 16383) i
    done;
    let l = List.init 70_000 (fun i -> (i * 7919) land 1_000_003) in
    ignore (Sys.opaque_identity (List.sort compare l));
    ignore (spin 1_700_000)
  in
  Gc.full_major ();
  let t0 = now () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn mix) in
  mix ();
  List.iter Domain.join others;
  now () -. t0
