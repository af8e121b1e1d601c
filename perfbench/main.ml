(* The repository benchmark.

     main.exe --workload NAME|all --seed N --seconds S --trace 0|1 [--rev REV]
     main.exe --self-test
     main.exe --manifest
     main.exe --compare BASE CAND

   A run builds its workload's inputs from the seed, measures for S
   seconds, checks every output, prints a report (every metric with unit,
   polarity and sample count, and the run's context) and, as its last
   line, one JSON object with the metrics of its tier: the end-to-end
   metrics untraced, the per-layer ones traced. It exits 1 when any output
   was wrong. [--manifest] prints BENCHMARK.json from the metric table;
   [--compare] judges a candidate run's final line against a base run's by
   each metric's polarity and bound. *)

type workload = {
  name : string;
  why : string;
  scale : float;
  run : Metric.run -> scale:float -> seed:int -> seconds:float -> traced:bool -> int;
}

let native programs r = Native.run r ~programs

let workloads =
  [
    {
      name = "native-fine";
      why =
        "spmv-powerlaw, bfs and ttv serial and HBC on real domains: tiny iterations, so \
         interpreter, poll and beat costs dominate";
      scale = 0.5;
      run = native [ "spmv-powerlaw"; "bfs"; "ttv" ];
    };
    {
      name = "native-coarse";
      why =
        "mandelbrot and kmeans serial and HBC on real domains: costly iterations, so promotion, \
         steal and park/wake across domains set the result";
      scale = 0.5;
      run = native [ "mandelbrot"; "kmeans" ];
    };
    {
      name = "sim-campaign";
      why =
        "the Fig. 4 campaign (13 irregular programs, serial/HBC/OpenMP at P=64) in the \
         simulator: engine and sim executor do the work";
      scale = 0.03;
      run = Campaign.run;
    };
    {
      name = "serve-preempt";
      why =
        "3-tenant job server over capacity with pause/checkpoint/resume, verify and sanitize: \
         many short jobs, so per-job set-up shows";
      scale = 0.0005;
      run = Serving.run;
    };
  ]

let run_seconds = 20

(* {2 One workload} *)

let measure w ~seed ~seconds ~traced ~rev =
  let r = Metric.create () in
  Span.enabled := traced;
  Span.spans := [];
  let t0 = Prog.now () in
  let ops =
    try w.run r ~scale:w.scale ~seed ~seconds ~traced
    with e ->
      Metric.check r false ("exception: " ^ Printexc.to_string e);
      0
  in
  let spin = Lazy.force Prog.spin_scaling in
  if traced then Metric.set r "ceiling.spin_scaling" ~n:5 spin;
  Metric.finalize r ~traced;
  Printf.printf
    "context: workload=%s trace=%d nproc=%d ocaml=%s seed=%d scale=%g seconds=%g ops=%d rev=%s \
     ceiling.spin_scaling=%.3f elapsed=%.1fs\n"
    w.name (Bool.to_int traced) (Domain.recommended_domain_count ()) Sys.ocaml_version seed
    w.scale seconds ops rev spin (Prog.now () -. t0);
  Metric.print_report r ~workload:w.name ~traced;
  if traced then begin
    (* Spans are written under _perfbench/ in the working directory. *)
    let path = Printf.sprintf "_perfbench/spans-%s-seed%d.json" w.name seed in
    (try
       if not (Sys.file_exists "_perfbench") then Sys.mkdir "_perfbench" 0o755;
       Span.write path;
       Printf.printf "spans: %d written to %s\n" (List.length !Span.spans) path
     with Sys_error e -> Printf.printf "spans: not written (%s)\n" e);
    Printf.printf "%-34s %6s %12s %12s\n" "span" "count" "total_s" "self_s";
    List.iter
      (fun (name, n, total, self) -> Printf.printf "%-34s %6d %12.6f %12.6f\n" name n total self)
      (Span.self_times ())
  end;
  r

let manifest () =
  Metric.manifest ~command:[ "python3"; "perfbench/run.py" ] ~paths:[ "perfbench" ] ~run_seconds
    ~workloads:(List.map (fun w -> (w.name, w.why)) workloads)

(* {2 Self-test} *)

let self_test () =
  let failures = ref 0 and checks = ref 0 in
  let expect what ok =
    incr checks;
    if not ok then begin
      incr failures;
      Printf.printf "self-test FAILED: %s\n" what
    end
  in
  let judge name base cand = Metric.compare_metric (Metric.spec name) ~base ~cand in
  (* Benefit metrics: a drop is a regression, a rise is not. *)
  List.iter
    (fun name ->
      expect (name ^ " drop is worse") (judge name 2.0 1.0 = `Worse);
      expect (name ^ " rise is better") (judge name 1.0 2.0 = `Better))
    [ "speedup"; "goodput"; "completed_ratio"; "sim_speedup_geo"; "native_run.scaling" ];
  (* Cost metrics: growth past the bound is a regression. *)
  expect "wall_cal.p50 +30% is worse" (judge "wall_cal.p50" 1.0 1.3 = `Worse);
  expect "wall_cal.p50 +5% is within its bound" (judge "wall_cal.p50" 1.0 1.05 = `Same);
  expect "wall_cal.p50 drop is better" (judge "wall_cal.p50" 1.0 0.5 = `Better);
  expect "sanitizer.violations 0 -> 1 is worse" (judge "sanitizer.violations" 0.0 1.0 = `Worse);
  expect "fail_ratio 0 -> 0.1 is worse" (judge "fail_ratio" 0.0 0.1 = `Worse);
  expect "exact control change is worse" (judge "sim.omp_speedup_geo" 14.2 14.3 = `Worse);
  (* Through the final-line codec, as --compare reads it. *)
  let line speedup goodput =
    let m name v = (name, Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.Str "x") ]) in
    Metric.final_line ~correct:true ~attempted:1 ~failed:0
      [ m "native-fine/speedup" speedup; m "serve-preempt/goodput" goodput ]
  in
  let verdicts = Metric.compare_lines ~base:(line 1.5 2.0) ~cand:(line 1.2 1.0) in
  expect "codec round trip keeps both metrics" (List.length verdicts = 2);
  List.iter (fun (name, _, _, _, v) -> expect (name ^ " drop through --compare") (v = `Worse)) verdicts;
  (* Order statistics. *)
  let ints n = List.init n (fun i -> float_of_int (i + 1)) in
  expect "tail of 40 is the 30th" (Metric.tail (ints 40) = (30.0, 75.0, 40));
  expect "tail never below the median" (let v, _, _ = Metric.tail (ints 13) in v = 7.0);
  expect "median of even count" (Metric.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5);
  (* The table obeys the manifest's rules. *)
  let bounds = List.filter_map (fun s -> match s.Metric.tier with Metric.End_to_end b -> Some (s, b) | _ -> None) Metric.specs in
  let setup_bound = List.assoc "setup_s" (List.map (fun (s, b) -> (s.Metric.name, b)) bounds) in
  expect "setup_s has the largest bound" (List.for_all (fun (_, b) -> b <= setup_bound) bounds);
  expect "bounds at most 0.25" (List.for_all (fun (_, b) -> b > 0.0 && b <= 0.25) bounds);
  List.iter
    (fun s ->
      expect (s.Metric.name ^ ": manifest metrics are lower or higher")
        (s.Metric.tier = Metric.Info || s.Metric.polarity <> Metric.Exact))
    Metric.specs;
  let names = List.map (fun s -> s.Metric.name) Metric.specs in
  expect "metric names are unique" (List.length (List.sort_uniq compare names) = List.length names);
  (* The committed manifest is the table's. *)
  (match open_in_bin "BENCHMARK.json" with
  | ic ->
      let committed = really_input_string ic (in_channel_length ic) in
      close_in ic;
      expect "BENCHMARK.json matches the metric table (regenerate with --manifest)"
        (Obs.Json.parse committed = Obs.Json.parse (Metric.pretty (manifest ())))
  | exception Sys_error _ -> ());
  Printf.printf "self-test: %d/%d checks passed\n" (!checks - !failures) !checks;
  !failures = 0

(* {2 Comparison} *)

let last_json_line path =
  let ic = open_in_bin path in
  let lines = String.split_on_char '\n' (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  match List.rev (List.filter (fun l -> String.length l > 0 && l.[0] = '{') lines) with
  | l :: _ -> l
  | [] -> failwith (path ^ ": no result line")

let compare_files base cand =
  let verdicts = Metric.compare_lines ~base:(last_json_line base) ~cand:(last_json_line cand) in
  let worse = ref 0 in
  List.iter
    (fun (name, s, b, c, v) ->
      let gated = match s.Metric.tier with Metric.End_to_end _ -> true | _ -> false in
      if v = `Worse && gated then incr worse;
      Printf.printf "%-34s %14.6g -> %-14.6g %-7s %s\n" name b c (Metric.polarity_name s.Metric.polarity)
        (match v with
        | `Worse -> if gated then "WORSE (past bound)" else "worse"
        | `Better -> "better"
        | `Same -> "same"))
    verdicts;
  Printf.printf "compare: %d end-to-end regression(s)\n" !worse;
  !worse = 0

(* {2 Command line} *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME|all --seed N --seconds S --trace 0|1 [--rev REV]\n\
    \       main.exe --self-test | --manifest | --compare BASE CAND";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  match args with
  | [ "--self-test" ] -> exit (if self_test () then 0 else 1)
  | [ "--manifest" ] -> print_endline (Metric.pretty (manifest ()))
  | [ "--compare"; base; cand ] -> exit (if compare_files base cand then 0 else 1)
  | _ ->
      let o = opts [] args in
      let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
      let num f k = match f (get k) with Some v -> v | None -> usage () in
      let seed = num int_of_string_opt "--seed" in
      let seconds = num float_of_string_opt "--seconds" in
      let traced = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
      let rev = Option.value ~default:"unknown" (List.assoc_opt "--rev" o) in
      let chosen =
        match get "--workload" with
        | "all" -> workloads
        | name -> (
            match List.find_opt (fun w -> w.name = name) workloads with
            | Some w -> [ w ]
            | None -> usage ())
      in
      let results = List.map (fun w -> (w, measure w ~seed ~seconds ~traced ~rev)) chosen in
      let prefixed = List.length results > 1 in
      let metrics =
        List.concat_map
          (fun (w, r) -> Metric.json_metrics ~prefix:(if prefixed then w.name ^ "/" else "") r ~traced)
          results
      in
      let sum f = List.fold_left (fun a (_, r) -> a + f r) 0 results in
      let failed = sum (fun r -> r.Metric.failed) in
      print_endline
        (Metric.final_line ~correct:(failed = 0) ~attempted:(sum (fun r -> r.Metric.attempted))
           ~failed metrics);
      exit (if failed = 0 then 0 else 1)
