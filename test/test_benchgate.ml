(* Perf-gate subsystem: report codec, regression diff, suite determinism. *)

open Benchgate

let metric ?(kind = Report.Deterministic) ?(polarity = Report.Cost) name value =
  { Report.metric = name; value; kind; polarity }

let probe name metrics = { Report.probe = name; metrics }

let sample_report ?(label = "t") probes = Report.make ~notes:[ ("k", "v") ] ~label probes

let base () =
  sample_report
    [
      probe "micro/a" [ metric "cycles" 100.; metric ~kind:Report.Advisory "wall_ns" 5000. ];
      probe "macro/b"
        [
          metric "promotions" 40.;
          metric "steals" 8.;
          metric ~polarity:Report.Benefit "goodput" 0.5;
          metric ~polarity:Report.Exact "ops" 64.;
        ];
    ]

(* ------------------------------- codec ---------------------------- *)

let test_roundtrip () =
  let r = base () in
  let r' = Report.of_string (Report.to_string r) in
  Alcotest.(check int) "schema" Report.schema_version r'.Report.schema;
  Alcotest.(check string) "label" r.Report.label r'.Report.label;
  Alcotest.(check (list (pair string string))) "notes" r.Report.notes r'.Report.notes;
  Alcotest.(check int) "probes" (List.length r.Report.probes) (List.length r'.Report.probes);
  let p = Option.get (Report.find_probe r' "micro/a") in
  let m = Option.get (Report.find_metric p "cycles") in
  Alcotest.(check (float 0.0)) "value" 100. m.Report.value;
  Alcotest.(check bool) "kind" true (m.Report.kind = Report.Deterministic);
  Alcotest.(check bool) "polarity" true (m.Report.polarity = Report.Cost);
  let adv = Option.get (Report.find_metric p "wall_ns") in
  Alcotest.(check bool) "adv kind" true (adv.Report.kind = Report.Advisory)

let test_roundtrip_bytes () =
  (* Deterministic serialization: decode/encode is the identity on bytes. *)
  let s = Report.to_string (base ()) in
  Alcotest.(check string) "byte-stable" s (Report.to_string (Report.of_string s))

let test_malformed () =
  Alcotest.check_raises "wrong schema"
    (Report.Malformed "unsupported report schema 999 (this build reads 2)") (fun () ->
      ignore (Report.of_string {|{"schema": 999, "label": "x", "notes": {}, "probes": []}|}));
  (* schema 1 had no polarities: reading one would mean guessing them *)
  Alcotest.check_raises "schema 1"
    (Report.Malformed "unsupported report schema 1 (this build reads 2)") (fun () ->
      ignore (Report.of_string {|{"schema": 1, "label": "x", "notes": {}, "probes": []}|}));
  (match Report.of_string {|{"schema": 2, "label": "x", "notes": {}, "probes": [{"probe": "p", "metrics": [{"metric": "m", "value": 1, "kind": "bogus", "polarity": "cost"}]}]}|} with
  | exception Report.Malformed _ -> ()
  | _ -> Alcotest.fail "bad kind tag accepted");
  (match Report.of_string {|{"schema": 2, "label": "x", "notes": {}, "probes": [{"probe": "p", "metrics": [{"metric": "m", "value": 1, "kind": "det", "polarity": "sideways"}]}]}|} with
  | exception Report.Malformed _ -> ()
  | _ -> Alcotest.fail "bad polarity tag accepted");
  (match Report.of_string {|{"schema": 2, "label": "x", "notes": {}, "probes": [{"probe": "p", "metrics": [{"metric": "m", "value": 1, "kind": "det"}]}]}|} with
  | exception Report.Malformed _ -> ()
  | _ -> Alcotest.fail "missing polarity accepted");
  match Report.of_string "{nope" with
  | exception Obs.Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "syntax error accepted"

let test_file_roundtrip () =
  let path = Filename.temp_file "benchgate" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let r = base () in
      Report.write_file path r;
      let r' = Report.read_file path in
      Alcotest.(check string) "label" r.Report.label r'.Report.label;
      Alcotest.(check int) "probes" 2 (List.length r'.Report.probes))

(* -------------------------------- diff ---------------------------- *)

let diff ?threshold ?adv_threshold old new_ = Diff.compare ?threshold ?adv_threshold ~old ~new_ ()

let statuses lines = List.map (fun l -> l.Diff.status) lines

let test_diff_identical () =
  let lines, verdict = diff (base ()) (base ()) in
  Alcotest.(check bool) "pass" true (verdict = Diff.Pass);
  Alcotest.(check bool) "all unchanged" true
    (List.for_all (fun s -> s = Diff.Unchanged) (statuses lines));
  Alcotest.(check int) "exit 0" 0 (Diff.exit_code verdict)

let test_diff_regression () =
  let old = sample_report [ probe "p" [ metric "cycles" 100. ] ] in
  let new_ = sample_report [ probe "p" [ metric "cycles" 103. ] ] in
  let lines, verdict = diff old new_ in
  Alcotest.(check bool) "fail" true (verdict = Diff.Fail);
  Alcotest.(check int) "exit 1" 1 (Diff.exit_code verdict);
  match lines with
  | [ l ] ->
      Alcotest.(check bool) "regressed" true (l.Diff.status = Diff.Regressed);
      Alcotest.(check (float 0.01)) "delta" 3.0 (Option.get l.Diff.delta_pct)
  | _ -> Alcotest.fail "expected one line"

let test_diff_within_threshold () =
  let old = sample_report [ probe "p" [ metric "cycles" 100. ] ] in
  let new_ = sample_report [ probe "p" [ metric "cycles" 101. ] ] in
  let _, verdict = diff old new_ in
  Alcotest.(check bool) "1% passes a 2% gate" true (verdict = Diff.Pass);
  let _, tight = diff ~threshold:0.005 old new_ in
  Alcotest.(check bool) "1% fails a 0.5% gate" true (tight = Diff.Fail)

let test_diff_improvement_passes () =
  let old = sample_report [ probe "p" [ metric "cycles" 100. ] ] in
  let new_ = sample_report [ probe "p" [ metric "cycles" 80. ] ] in
  let lines, verdict = diff old new_ in
  Alcotest.(check bool) "pass" true (verdict = Diff.Pass);
  Alcotest.(check bool) "improved" true (statuses lines = [ Diff.Improved ])

let test_diff_zero_baseline () =
  (* A metric that was 0 and became nonzero has no finite relative delta:
     treated as a regression (a new cost appeared). *)
  let old = sample_report [ probe "p" [ metric "steals" 0. ] ] in
  let new_ = sample_report [ probe "p" [ metric "steals" 5. ] ] in
  let _, verdict = diff old new_ in
  Alcotest.(check bool) "0 -> 5 fails" true (verdict = Diff.Fail)

let test_diff_advisory_warns_only () =
  let old = sample_report [ probe "p" [ metric ~kind:Report.Advisory "wall_ns" 1000. ] ] in
  let new_ = sample_report [ probe "p" [ metric ~kind:Report.Advisory "wall_ns" 4000. ] ] in
  let lines, verdict = diff old new_ in
  Alcotest.(check bool) "warn, never fail" true (verdict = Diff.Warn);
  Alcotest.(check bool) "changed" true (statuses lines = [ Diff.Changed ]);
  Alcotest.(check int) "exit 0" 0 (Diff.exit_code verdict);
  (* Below the advisory threshold it does not even warn. *)
  let small = sample_report [ probe "p" [ metric ~kind:Report.Advisory "wall_ns" 1100. ] ] in
  let _, v2 = diff old small in
  Alcotest.(check bool) "10% wall jitter ignored" true (v2 = Diff.Pass)

let test_diff_skew () =
  (* Probe/metric set skew between baseline and suite warns, never fails. *)
  let old =
    sample_report [ probe "gone" [ metric "cycles" 1. ]; probe "p" [ metric "old_m" 1. ] ]
  in
  let new_ =
    sample_report [ probe "p" [ metric "new_m" 2. ]; probe "fresh" [ metric "cycles" 3. ] ]
  in
  let lines, verdict = diff old new_ in
  Alcotest.(check bool) "warn" true (verdict = Diff.Warn);
  let count st = List.length (List.filter (fun s -> s = st) (statuses lines)) in
  Alcotest.(check int) "removed probe + removed metric" 2 (count Diff.Removed);
  Alcotest.(check int) "added probe + added metric" 2 (count Diff.Added);
  Alcotest.(check int) "exit 0" 0 (Diff.exit_code verdict)

let test_render_mentions_regression () =
  let old = sample_report [ probe "p" [ metric "cycles" 100. ] ] in
  let new_ = sample_report [ probe "p" [ metric "cycles" 200. ] ] in
  let lines, verdict = diff old new_ in
  let s = Diff.render ~old ~new_ lines verdict in
  let has needle =
    let nl = String.length needle and sl = String.length s in
    let rec at i = i + nl <= sl && (String.sub s i nl = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "names probe" true (has "p");
  Alcotest.(check bool) "says FAIL" true (has "FAIL")

(* One test per polarity. A cost fails on growth only; a benefit fails on
   a drop only (leaving a zero baseline is an improvement); an exact
   metric fails on any change, however small. *)
let verdict_of old_m new_m =
  snd (diff (sample_report [ probe "p" [ old_m ] ]) (sample_report [ probe "p" [ new_m ] ]))

let test_diff_cost () =
  let c = metric "c" in
  Alcotest.(check bool) "growth fails" true (verdict_of (c 100.) (c 110.) = Diff.Fail);
  Alcotest.(check bool) "drop passes" true (verdict_of (c 100.) (c 50.) = Diff.Pass);
  Alcotest.(check bool) "to zero passes" true (verdict_of (c 100.) (c 0.) = Diff.Pass)

let test_diff_benefit () =
  let b = metric ~polarity:Report.Benefit "goodput" in
  Alcotest.(check bool) "drop fails" true (verdict_of (b 100.) (b 90.) = Diff.Fail);
  Alcotest.(check bool) "to zero fails" true (verdict_of (b 0.25) (b 0.) = Diff.Fail);
  Alcotest.(check bool) "1% drop passes a 2% gate" true (verdict_of (b 100.) (b 99.) = Diff.Pass);
  let lines, v =
    diff (sample_report [ probe "p" [ b 100. ] ]) (sample_report [ probe "p" [ b 150. ] ])
  in
  Alcotest.(check bool) "growth improves" true
    (v = Diff.Pass && statuses lines = [ Diff.Improved ]);
  Alcotest.(check bool) "leaving zero improves" true (verdict_of (b 0.) (b 3.) = Diff.Pass)

let test_diff_exact () =
  let e = metric ~polarity:Report.Exact "ops" in
  Alcotest.(check bool) "unchanged passes" true (verdict_of (e 7.) (e 7.) = Diff.Pass);
  Alcotest.(check bool) "up fails" true (verdict_of (e 1000.) (e 1001.) = Diff.Fail);
  Alcotest.(check bool) "down fails" true (verdict_of (e 1000.) (e 999.) = Diff.Fail);
  Alcotest.(check bool) "1 -> 0 fails" true (verdict_of (e 1.) (e 0.) = Diff.Fail)

(* The committed baseline's own polarities catch the two falls the cost-only
   gate scored as improvements: a checkpoint resume that stops being
   identical, and a server that completes nothing. *)
let test_diff_baseline_falls () =
  (* dune runtest runs in _build/default/test; a direct run, at the root *)
  let base =
    Report.read_file (List.find Sys.file_exists [ "../bench/baseline.json"; "bench/baseline.json" ])
  in
  let set probe_name metric_name v (r : Report.t) =
    {
      r with
      Report.probes =
        List.map
          (fun (p : Report.probe) ->
            if p.Report.probe <> probe_name then p
            else
              {
                p with
                Report.metrics =
                  List.map
                    (fun (m : Report.metric) ->
                      if m.Report.metric = metric_name then { m with Report.value = v } else m)
                    p.Report.metrics;
              })
          r.Report.probes;
    }
  in
  let check what cand =
    let lines, v = diff base cand in
    Alcotest.(check bool) (what ^ " fails") true (v = Diff.Fail);
    Alcotest.(check int) (what ^ " regressed lines") 1
      (List.length (List.filter (fun l -> l.Diff.status = Diff.Regressed) lines))
  in
  check "identical 1 -> 0" (set "micro/checkpoint-capture" "identical" 0. base);
  check "goodput -> 0" (set "serve/steady-tail" "goodput" 0. base);
  check "completed -> 0" (set "serve/steady-tail" "completed" 0. base);
  let p = Option.get (Report.find_probe base "micro/domains-dispatch") in
  List.iter
    (fun name ->
      let m = Option.get (Report.find_metric p name) in
      Alcotest.(check bool) (name ^ " is exact") true (m.Report.polarity = Report.Exact);
      check (name ^ " +1") (set "micro/domains-dispatch" name (m.Report.value +. 1.) base))
    [ "promotions"; "work_cycles" ]

(* ----------------------------- suite ------------------------------ *)

(* The acceptance property of the whole subsystem: running the suite twice
   in one process yields identical deterministic metrics (virtual cycles,
   event counts, gated allocation words). *)
let test_suite_deterministic () =
  let strip probes =
    List.map
      (fun (p : Report.probe) ->
        ( p.Report.probe,
          List.filter_map
            (fun (m : Report.metric) ->
              if m.Report.kind = Report.Deterministic then Some (m.Report.metric, m.Report.value)
              else None)
            p.Report.metrics ))
      probes
  in
  let a = strip (Suite.all ()) in
  let b = strip (Suite.all ()) in
  Alcotest.(check (list (pair string (list (pair string (float 0.0)))))) "identical" a b;
  let r1, _ = Diff.compare ~old:(Report.make ~label:"a" (Suite.all ()))
      ~new_:(Report.make ~label:"b" (Suite.all ())) () in
  Alcotest.(check bool) "no deterministic drift" true
    (List.for_all
       (fun l ->
         match l.Diff.kind with
         | Some Report.Deterministic -> l.Diff.status = Diff.Unchanged
         | _ -> true)
       r1)

let test_suite_shape () =
  let r = Suite.report ~label:"shape" () in
  Alcotest.(check bool) "has micro probes" true
    (Option.is_some (Report.find_probe r "micro/engine-dispatch"));
  Alcotest.(check bool) "has macro probes" true
    (Option.is_some (Report.find_probe r "macro/fig4-5/spmv-powerlaw-hbc"));
  let p = Option.get (Report.find_probe r "macro/fig4-5/spmv-powerlaw-hbc") in
  List.iter
    (fun m ->
      Alcotest.(check bool) (m ^ " present") true (Option.is_some (Report.find_metric p m)))
    [ "makespan_cycles"; "promotions"; "steals"; "polls"; "alloc_minor_words"; "wall_ns" ];
  Alcotest.(check bool) "provenance recorded" true (List.mem_assoc "suite_seed" r.Report.notes)

let suite =
  [
    Alcotest.test_case "codec: report round-trip" `Quick test_roundtrip;
    Alcotest.test_case "codec: byte-stable serialization" `Quick test_roundtrip_bytes;
    Alcotest.test_case "codec: malformed inputs rejected" `Quick test_malformed;
    Alcotest.test_case "codec: file round-trip" `Quick test_file_roundtrip;
    Alcotest.test_case "diff: identical reports pass" `Quick test_diff_identical;
    Alcotest.test_case "diff: >2% deterministic growth fails" `Quick test_diff_regression;
    Alcotest.test_case "diff: threshold boundary" `Quick test_diff_within_threshold;
    Alcotest.test_case "diff: improvement passes" `Quick test_diff_improvement_passes;
    Alcotest.test_case "diff: zero-baseline growth fails" `Quick test_diff_zero_baseline;
    Alcotest.test_case "diff: advisory warns only" `Quick test_diff_advisory_warns_only;
    Alcotest.test_case "diff: metric-set skew warns only" `Quick test_diff_skew;
    Alcotest.test_case "diff: render names regressions" `Quick test_render_mentions_regression;
    Alcotest.test_case "diff: cost fails on growth only" `Quick test_diff_cost;
    Alcotest.test_case "diff: benefit fails on a drop only" `Quick test_diff_benefit;
    Alcotest.test_case "diff: exact fails on any change" `Quick test_diff_exact;
    Alcotest.test_case "diff: baseline catches benefit and exact falls" `Quick
      test_diff_baseline_falls;
    Alcotest.test_case "suite: deterministic metrics stable" `Slow test_suite_deterministic;
    Alcotest.test_case "suite: probes and metrics present" `Slow test_suite_shape;
  ]
