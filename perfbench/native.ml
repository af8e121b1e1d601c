(* native-fine / native-coarse: each program runs serially and under HBC
   on real domains at P = nproc, in rounds, until the time is up. A round
   is one call of each program per rung, in a seed-shuffled order. The
   traced variant climbs the whole ladder — serial, P=1 without promotion,
   P=1 with beats, P=N, P=N under a counting sink — so each rung's cost is
   a ratio to the rung below it, then runs each program once at P=N under
   the sanitizer on inputs a tenth the size: the sanitizer's cost grows
   faster than the run, and at full size one sanitized round takes
   minutes. *)

type rung = Serial | P1_nopromo | P1_beat | PN | PN_traced

let rung_name = function
  | Serial -> "serial"
  | P1_nopromo -> "p1_nopromo"
  | P1_beat -> "p1_beat"
  | PN -> "pN"
  | PN_traced -> "pN_traced"

let rungs ~traced = if traced then [ Serial; P1_nopromo; P1_beat; PN; PN_traced ] else [ Serial; PN ]

(* Event counts of the traced runs, from a counting sink. Native emission
   is linearized by the backend, but the counters are atomic anyway. *)
let counted =
  [
    "trace.polls";
    "trace.heartbeats_detected";
    "trace.promotions";
    "trace.steal_attempts";
    "trace.steal_successes";
    "trace.tasks_spawned";
    "trace.leftover_runs";
    "trace.joins_slow";
  ]

let counting_sink counts =
  let bump name = Atomic.incr (List.assoc name counts) in
  Obs.Trace.Sink.fn (fun ~time:_ ~worker:_ ev ->
      match ev with
      | Obs.Trace.Poll -> bump "trace.polls"
      | Heartbeat_detected -> bump "trace.heartbeats_detected"
      | Promotion _ -> bump "trace.promotions"
      | Steal_attempt -> bump "trace.steal_attempts"
      | Steal_success -> bump "trace.steal_successes"
      | Task_spawned -> bump "trace.tasks_spawned"
      | Leftover_run -> bump "trace.leftover_runs"
      | Task_joined_slow -> bump "trace.joins_slow"
      | _ -> ())

(* A request whose sink feeds both the sanitizer and the counters. *)
let sanitized counts =
  let san = Sanitizer.Checker.create (Sanitizer.Checker.config_of_rt Hbc_core.Rt_config.default) in
  let trace = Obs.Trace.Sink.tee (Sanitizer.Checker.sink san) (counting_sink counts) in
  (Hbc_core.Run_request.make ~trace ~sanitize:true (), san)

(* Finish a sanitized run's checks; the violation count. *)
let verdict r san what =
  Sanitizer.Checker.finish san;
  let v = Sanitizer.Checker.violation_count san in
  Metric.check r (v = 0) (what ^ ": " ^ Sanitizer.Checker.summary san);
  v

(* Per-round means of the traced counts. *)
let record_counts r counts ~n =
  let count name = float_of_int (Atomic.get (List.assoc name counts)) in
  List.iter (fun (name, _) -> Metric.set r name ~n (count name /. float_of_int n)) counts;
  Metric.set r "trace.steal_success_ratio" ~n
    (count "trace.steal_successes" /. Float.max 1.0 (count "trace.steal_attempts"))

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let run r ~programs ~scale ~seed ~seconds ~traced =
  let nproc = Domain.recommended_domain_count () in
  let progs, setup = Prog.setup programs ~scale in
  Prog.record_setup r setup;
  let counts = List.map (fun n -> (n, Atomic.make 0)) counted in
  let violations = ref 0 in
  let exec = function
    | Serial -> Prog.Serial
    | P1_nopromo -> Prog.native ~promotion:false ~seed 1
    | P1_beat -> Prog.native ~seed 1
    | PN -> Prog.native ~seed nproc
    | PN_traced ->
        Prog.native ~request:(Hbc_core.Run_request.make ~trace:(counting_sink counts) ()) ~seed nproc
  in
  (* One discarded warm-up call per program and rung; the serial one is
     also each program's reference output. *)
  let reference =
    List.map
      (fun p ->
        let _, ref_r = Prog.timed p Prog.Serial in
        Metric.check r (Sim.Run_result.completed ref_r) (Prog.name p ^ " serial reference");
        List.iter
          (fun rung ->
            if rung <> PN_traced then begin
              let _, res = Prog.timed p (exec rung) in
              Metric.check r
                (Sim.Run_result.completed res && Sim.Run_result.fingerprints_close ref_r res)
                (Prog.name p ^ " warm-up")
            end)
          (rungs ~traced);
        (Prog.name p, ref_r))
      progs
  in
  let times = Hashtbl.create 16 in
  let promotions = ref [] and peaks = ref [] in
  let rounds = ref [] and cals = ref [] in
  let rng = Random.State.make [| seed |] in
  ignore (Prog.take_peak ());
  let deadline = Prog.now () +. seconds in
  while !rounds = [] || Prog.now () < deadline do
    let round = Hashtbl.create 5 in
    let promos = ref 0 in
    cals := Prog.calibrate ~domains:nproc () :: !cals;
    Span.with_ "round" (fun () ->
        List.iter
          (fun p ->
            List.iter
              (fun rung ->
                let dt, res =
                  Span.with_ ("rung." ^ rung_name rung) (fun () -> Prog.timed p (exec rung))
                in
                let ok =
                  Sim.Run_result.completed res
                  && Sim.Run_result.fingerprints_close (List.assoc (Prog.name p) reference) res
                in
                Metric.check r ok (Printf.sprintf "%s output mismatch" (Prog.name p));
                if rung = PN then
                  promos := !promos + res.Sim.Run_result.metrics.Sim.Metrics.promotions;
                let key = (Prog.name p, rung) in
                Hashtbl.replace times key (dt :: Option.value ~default:[] (Hashtbl.find_opt times key));
                Hashtbl.replace round rung
                  (dt +. Option.value ~default:0.0 (Hashtbl.find_opt round rung)))
              (rungs ~traced))
          (shuffle rng progs));
    promotions := float_of_int !promos :: !promotions;
    peaks := Prog.take_peak () :: !peaks;
    rounds := round :: !rounds
  done;
  let n = List.length !rounds in
  let sums rung = List.map (fun round -> Hashtbl.find round rung) !rounds in
  let med rung = Metric.median (sums rung) in
  Metric.set r "serial_s.p50" ~n (med Serial);
  Metric.set r "heap_peak_mb" ~n (Metric.median !peaks);
  if not traced then begin
    Metric.record_walls r ~what:"HBC rounds at P=nproc" (sums PN) !cals;
    let per_program =
      List.map
        (fun p ->
          let m rung = Metric.median (Hashtbl.find times (Prog.name p, rung)) in
          Printf.printf "program: %-14s serial %.4fs  hbc P=%d %.4fs  speedup %.3f\n" (Prog.name p)
            (m Serial) nproc (m PN) (m Serial /. m PN);
          m Serial /. m PN)
        progs
    in
    Metric.set r "speedup" ~n (Metric.geomean per_program)
      ~note:(Printf.sprintf "geomean over %d programs; base serial_s.p50" (List.length progs))
  end
  else begin
    let serial = med Serial and nopromo = med P1_nopromo and beat = med P1_beat in
    let pn = med PN and traced_pn = med PN_traced in
    let spin = Lazy.force Prog.spin_scaling in
    let scaling = beat /. pn in
    let lost = (float_of_int nproc *. pn) -. beat in
    Metric.set r "serial_exec.run_s" ~n serial;
    Metric.set r "native_run.p1_nopromo_s" ~n nopromo;
    Metric.set r "native_run.p1_beat_s" ~n beat;
    Metric.set r "native_run.pN_s" ~n pn;
    Metric.set r "native_run.pN_traced_s" ~n traced_pn;
    Metric.set r "native_run.lost_worker_s" ~n lost;
    Metric.set r "native_run.interp_overhead" ~n (nopromo /. serial);
    Metric.set r "native_run.beat_overhead" ~n (beat /. nopromo);
    Metric.set r "native_run.scaling" ~n scaling;
    Metric.set r "native_run.ceiling_frac" ~n (scaling /. spin);
    Metric.set r "native_run.lost_worker_frac" ~n (lost /. (float_of_int nproc *. pn));
    Metric.set r "native_run.promotions" ~n (Metric.median !promotions);
    record_counts r counts ~n;
    Metric.set r "obs.trace_overhead" ~n (traced_pn /. pn);
    let small, _ = Prog.build programs ~scale:(scale /. 10.0) ~keep:false in
    List.iter
      (fun p ->
        let _, reference = Prog.timed p Prog.Serial in
        let request, san = sanitized (List.map (fun n -> (n, Atomic.make 0)) counted) in
        let _, res = Prog.timed p (Prog.native ~request ~seed nproc) in
        Metric.check r
          (Sim.Run_result.completed res && Sim.Run_result.fingerprints_close reference res)
          (Prog.name p ^ " sanitized output mismatch");
        violations := !violations + verdict r san (Prog.name p))
      small;
    Metric.set r "sanitizer.violations" ~n:(List.length small) (float_of_int !violations)
  end;
  n
