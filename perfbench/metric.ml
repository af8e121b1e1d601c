(* The benchmark's metric table — the single source of truth for every
   metric's unit, polarity and tier — plus the per-run result store, the
   order statistics, the report printer, the final JSON line, the
   BENCHMARK.json manifest and the polarity-aware comparison. *)

type polarity = Lower | Higher | Exact

type tier =
  | End_to_end of float
      (** reported by every workload's untraced run; the float is the bound:
          the share of the parent's median it may worsen by *)
  | Layer  (** reported by every workload's traced run; unbounded *)
  | Info
      (** printed with its sample count but not in the manifest or the final
          JSON line: raw seconds of layers a workload may not have, and
          exact-polarity controls *)

type spec = { name : string; unit_ : string; polarity : polarity; tier : tier }

let e2e name unit_ polarity bound = { name; unit_; polarity; tier = End_to_end bound }
let layer name unit_ polarity = { name; unit_; polarity; tier = Layer }
let info name unit_ polarity = { name; unit_; polarity; tier = Info }

let specs =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "wall_cal.p50" "cal" Lower 0.2;
    e2e "wall_cal.tail" "cal" Lower 0.25;
    e2e "speedup" "x" Higher 0.2;
    e2e "heap_peak_mb" "MB" Lower 0.2;
    (* every workload *)
    layer "workloads.make_env_s" "s" Lower;
    layer "pipeline.compile_s" "s" Lower;
    layer "serial_exec.run_s" "s" Lower;
    layer "ceiling.spin_scaling" "x" Higher;
    layer "obs.trace_overhead" "x" Lower;
    layer "sanitizer.violations" "count" Lower;
    layer "fail_ratio" "ratio" Lower;
    (* native-fine, native-coarse *)
    layer "native_run.interp_overhead" "x" Lower;
    layer "native_run.beat_overhead" "x" Lower;
    layer "native_run.scaling" "x" Higher;
    layer "native_run.ceiling_frac" "ratio" Higher;
    layer "native_run.lost_worker_frac" "ratio" Lower;
    layer "native_run.promotions" "count" Higher;
    layer "trace.polls" "count" Lower;
    layer "trace.heartbeats_detected" "count" Higher;
    layer "trace.promotions" "count" Higher;
    layer "trace.steal_attempts" "count" Lower;
    layer "trace.steal_successes" "count" Higher;
    layer "trace.steal_success_ratio" "ratio" Higher;
    layer "trace.tasks_spawned" "count" Higher;
    layer "trace.leftover_runs" "count" Lower;
    layer "trace.joins_slow" "count" Lower;
    (* sim-campaign *)
    layer "harness.baseline_frac" "ratio" Lower;
    layer "executor.hbc_frac" "ratio" Lower;
    layer "openmp.dynamic_frac" "ratio" Lower;
    layer "harness.other_frac" "ratio" Lower;
    layer "sim.cycles_per_s" "cycles/s" Higher;
    layer "sim.polls" "count" Lower;
    layer "sim.heartbeats_detected" "count" Higher;
    layer "sim.promotions" "count" Higher;
    layer "sim.steal_attempts" "count" Lower;
    layer "sim.steals" "count" Higher;
    layer "sim.overhead_cycles" "cycles" Lower;
    layer "sim_speedup_geo" "x" Higher;
    (* serve-preempt *)
    layer "server.admitted" "count" Higher;
    layer "server.shed" "count" Lower;
    layer "server.deadline_exceeded" "count" Lower;
    layer "server.checkpointed" "count" Lower;
    layer "server.resumed" "count" Lower;
    layer "server.breaker_opens" "count" Lower;
    layer "server.jobs_per_s" "1/s" Higher;
    layer "server.episodes_per_completed" "ratio" Lower;
    layer "goodput" "work/cycle" Higher;
    layer "completed_ratio" "ratio" Higher;
    layer "sojourn_p50_cycles" "cycles" Lower;
    layer "sojourn_p95_cycles" "cycles" Lower;
    (* printed only *)
    info "wall_s.p50" "s" Lower;
    info "wall_s.tail" "s" Lower;
    info "calibration_s" "s" Lower;
    info "serial_s.p50" "s" Lower;
    info "native_run.p1_nopromo_s" "s" Lower;
    info "native_run.p1_beat_s" "s" Lower;
    info "native_run.pN_s" "s" Lower;
    info "native_run.pN_traced_s" "s" Lower;
    info "native_run.lost_worker_s" "s" Lower;
    info "harness.baseline_s" "s" Lower;
    info "executor.hbc_s" "s" Lower;
    info "openmp.dynamic_s" "s" Lower;
    info "harness.other_s" "s" Lower;
    info "sim.omp_speedup_geo" "x" Exact;
    info "server.submitted" "count" Exact;
    info "server.completed" "count" Higher;
    info "server.wall_per_job_ms" "ms" Lower;
  ]

let spec name =
  match List.find_opt (fun s -> s.name = name) specs with
  | Some s -> s
  | None -> invalid_arg ("unknown metric " ^ name)

let polarity_name = function Lower -> "lower" | Higher -> "higher" | Exact -> "exact"

let traced_tier = function Layer -> true | End_to_end _ | Info -> false

(* {2 Order statistics} *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest order statistic with at least ten samples above it, never
   below the median: (value, percentile, samples). *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (nan, 0.0, 0)
  else
    let rank = max (n - 10) ((n + 1) / 2) in
    (a.(rank - 1), 100.0 *. float_of_int rank /. float_of_int n, n)

let geomean xs =
  match xs with
  | [] -> nan
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(* {2 One run's results} *)

type value = { v : float; n : int; note : string }

type run = {
  values : (string, value) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let create () = { values = Hashtbl.create 64; attempted = 0; failed = 0; failures = [] }

let set ?(note = "") r name ~n v =
  ignore (spec name);
  Hashtbl.replace r.values name { v; n; note }

(* An operation's wall time in calibration units — divided by the time
   of the calibration loop run just before it — and the raw seconds
   beside them. *)
let record_walls r ~what walls cals =
  let n = List.length walls in
  let ratios = List.map2 ( /. ) walls cals in
  let tail_note pct = Printf.sprintf "p%.0f of %d %s" pct n what in
  let v, pct, _ = tail ratios in
  set r "wall_cal.p50" ~n (median ratios);
  set r "wall_cal.tail" ~n v ~note:(tail_note pct);
  let v, pct, _ = tail walls in
  set r "wall_s.p50" ~n (median walls);
  set r "wall_s.tail" ~n v ~note:(tail_note pct);
  set r "calibration_s" ~n (median cals)

(* Count one checked operation; a failure is kept (with a reason) rather
   than dropped. *)
let check r ok what =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    if List.length r.failures < 20 then r.failures <- what :: r.failures
  end

let fail_ratio r = if r.attempted = 0 then 1.0 else float_of_int r.failed /. float_of_int r.attempted

let selected ~traced =
  List.filter
    (fun s -> match s.tier with End_to_end _ -> not traced | Layer -> traced | Info -> false)
    specs

(* Give every traced-tier metric the workload did not exercise a 0 with no
   samples, record the failure ratio, and guard against non-finite values
   (a bug in the benchmark, counted as a failure). *)
let finalize r ~traced =
  List.iter
    (fun s ->
      match Hashtbl.find_opt r.values s.name with
      | None when s.tier = Layer -> set r s.name ~n:0 0.0 ~note:"not exercised by this workload"
      | None -> check r false (s.name ^ " was not measured")
      | Some { v; _ } when not (Float.is_finite v) -> check r false (s.name ^ " is not finite")
      | Some _ -> ())
    (selected ~traced);
  set r "fail_ratio" ~n:r.attempted (fail_ratio r)

let print_report r ~workload ~traced =
  Printf.printf "%-34s %16s %-10s %-7s %s\n" ("metric (" ^ workload ^ ")") "value" "unit" "better"
    "samples";
  List.iter
    (fun s ->
      match Hashtbl.find_opt r.values s.name with
      | Some { v; n; note } when s.tier = Info || traced_tier s.tier = traced ->
          Printf.printf "%-34s %16.6g %-10s %-7s n=%d%s\n" s.name v s.unit_
            (polarity_name s.polarity) n
            (if note = "" then "" else "  " ^ note)
      | _ -> ())
    specs;
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) (List.rev r.failures)

(* The final line's metric objects, optionally with a name prefix. *)
let json_metrics ?(prefix = "") r ~traced =
  List.map
    (fun s ->
      let v = match Hashtbl.find_opt r.values s.name with Some x when Float.is_finite x.v -> x.v | _ -> 0.0 in
      (prefix ^ s.name, Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.Str s.unit_) ]))
    (selected ~traced)

let final_line ~correct ~attempted ~failed metrics =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("correct", Obs.Json.Bool correct);
         ("attempted", Obs.Json.Int attempted);
         ("failed", Obs.Json.Int failed);
         ("metrics", Obs.Json.Obj metrics);
       ])

(* {2 BENCHMARK.json} *)

let manifest ~command ~paths ~run_seconds ~workloads =
  let open Obs.Json in
  let metric s extra =
    Obj
      ([ ("name", Str s.name); ("unit", Str s.unit_); ("better", Str (polarity_name s.polarity)) ]
      @ extra)
  in
  Obj
    [
      ("command", Arr (List.map (fun c -> Str c) command));
      ("paths", Arr (List.map (fun p -> Str p) paths));
      ("run_seconds", Int run_seconds);
      ( "workloads",
        Arr (List.map (fun (name, why) -> Obj [ ("name", Str name); ("why", Str why) ]) workloads) );
      ( "end_to_end",
        Arr
          (List.filter_map
             (fun s ->
               match s.tier with
               | End_to_end b -> Some (metric s [ ("bound", Float b) ])
               | _ -> None)
             specs) );
      ("per_layer", Arr (List.filter_map (fun s -> if s.tier = Layer then Some (metric s []) else None) specs));
    ]

(* Indented JSON for the manifest: containers holding containers break
   across lines, and floats print at their shortest readable precision. *)
let rec pretty ?(indent = 0) v =
  let open Obs.Json in
  let nested = function Obj _ | Arr _ -> true | _ -> false in
  let items =
    match v with
    | Obj f -> List.map (fun (k, x) -> (to_string (Str k) ^ ": ", x)) f
    | Arr l -> List.map (fun x -> ("", x)) l
    | _ -> []
  in
  let o, c = match v with Obj _ -> ("{", "}") | _ -> ("[", "]") in
  match v with
  | Float f -> Printf.sprintf "%.12g" f
  | (Obj _ | Arr _) when List.exists (fun (_, x) -> nested x) items ->
      let pad = "\n" ^ String.make (indent + 2) ' ' in
      o ^ pad
      ^ String.concat ("," ^ pad) (List.map (fun (k, x) -> k ^ pretty ~indent:(indent + 2) x) items)
      ^ "\n" ^ String.make indent ' ' ^ c
  | Obj _ | Arr _ -> o ^ String.concat ", " (List.map (fun (k, x) -> k ^ pretty x) items) ^ c
  | _ -> to_string v

(* {2 Comparison}

   [compare_metric ~base ~cand] judges a candidate value against a base
   value by the metric's polarity: [`Worse] when it moved the wrong way by
   more than the bound (end-to-end) or at all (unbounded layer metrics
   and exact ones), [`Better] when it moved the right way, [`Same]
   otherwise. *)

let compare_metric s ~base ~cand =
  let bound = match s.tier with End_to_end b -> b | Layer | Info -> 0.0 in
  let rel =
    if base <> 0.0 then (cand -. base) /. Float.abs base
    else if cand > 0.0 then infinity
    else if cand < 0.0 then neg_infinity
    else 0.0
  in
  match s.polarity with
  | Exact -> if cand = base then `Same else `Worse
  | Lower -> if rel > bound then `Worse else if rel < 0.0 then `Better else `Same
  | Higher -> if rel < -.bound then `Worse else if rel > 0.0 then `Better else `Same

(* Metrics of a final JSON line, by name. *)
let parse_line line =
  match Obs.Json.parse line with
  | Obs.Json.Obj fields -> (
      match Obs.Json.mem "metrics" fields with
      | Some (Obs.Json.Obj ms) ->
          List.filter_map
            (fun (name, v) ->
              match v with
              | Obs.Json.Obj f -> Option.map (fun x -> (name, x)) (Obs.Json.get_float "value" f)
              | _ -> None)
            ms
      | _ -> [])
  | _ -> []

(* Strip an optional "<workload>/" prefix (the [all] mode's names). *)
let base_name name =
  match String.rindex_opt name '/' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let compare_lines ~base ~cand =
  let b = parse_line base and c = parse_line cand in
  List.filter_map
    (fun (name, cv) ->
      match (List.assoc_opt name b, List.find_opt (fun s -> s.name = base_name name) specs) with
      | Some bv, Some s -> Some (name, s, bv, cv, compare_metric s ~base:bv ~cand:cv)
      | _ -> None)
    c
