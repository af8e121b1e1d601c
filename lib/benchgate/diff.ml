type status = Unchanged | Improved | Regressed | Changed | Added | Removed

type line = {
  probe : string;
  metric : string;
  kind : Report.kind option;
  polarity : Report.polarity option;
  old_v : float option;
  new_v : float option;
  delta_pct : float option;
  status : status;
}

type verdict = Pass | Warn | Fail

let status_name = function
  | Unchanged -> "ok"
  | Improved -> "improved"
  | Regressed -> "REGRESSED"
  | Changed -> "changed"
  | Added -> "added"
  | Removed -> "removed"

let verdict_name = function Pass -> "PASS" | Warn -> "WARN" | Fail -> "FAIL"

let exit_code = function Fail -> 1 | Pass | Warn -> 0

(* Names on the left side in their order, then right-only names in theirs. *)
let union_names left right = left @ List.filter (fun n -> not (List.mem n left)) right

let probe_names (r : Report.t) = List.map (fun p -> p.Report.probe) r.Report.probes

let metric_names (p : Report.probe) = List.map (fun m -> m.Report.metric) p.Report.metrics

let whole_probe_line ~probe status =
  {
    probe;
    metric = "*";
    kind = None;
    polarity = None;
    old_v = None;
    new_v = None;
    delta_pct = None;
    status;
  }

let compare_metric ~threshold ~adv_threshold ~probe (old_m : Report.metric option)
    (new_m : Report.metric option) name =
  (* The baseline's declaration rules: it is the committed contract. *)
  let kind, polarity =
    match (old_m, new_m) with
    | Some m, _ | None, Some m -> (Some m.Report.kind, Some m.Report.polarity)
    | None, None -> (None, None)
  in
  let old_v = Option.map (fun m -> m.Report.value) old_m in
  let new_v = Option.map (fun m -> m.Report.value) new_m in
  match (old_v, new_v) with
  | None, None -> None
  | Some _, None ->
      Some
        { probe; metric = name; kind; polarity; old_v; new_v; delta_pct = None; status = Removed }
  | None, Some _ ->
      Some { probe; metric = name; kind; polarity; old_v; new_v; delta_pct = None; status = Added }
  | Some o, Some n ->
      let delta_pct = if o = 0.0 then None else Some (100.0 *. (n -. o) /. o) in
      let rel = match delta_pct with Some p -> p /. 100.0 | None -> 0.0 in
      let status =
        match (kind, polarity) with
        | Some Report.Deterministic, Some Report.Exact -> if n = o then Unchanged else Regressed
        | Some Report.Deterministic, (Some Report.Cost | None) ->
            (* A baseline of exactly zero is a zero-cost guarantee, so any
               nonzero candidate is a regression. *)
            if o = 0.0 then if n = 0.0 then Unchanged else Regressed
            else if rel > threshold then Regressed
            else if rel < -.threshold then Improved
            else Unchanged
        | Some Report.Deterministic, Some Report.Benefit ->
            if o = 0.0 then if n > 0.0 then Improved else if n = 0.0 then Unchanged else Regressed
            else if rel < -.threshold then Regressed
            else if rel > threshold then Improved
            else Unchanged
        | Some Report.Advisory, _ ->
            if o <> 0.0 && Float.abs rel > adv_threshold then Changed else Unchanged
        | None, _ -> Unchanged
      in
      Some { probe; metric = name; kind; polarity; old_v; new_v; delta_pct; status }

let compare ?(threshold = 0.02) ?(adv_threshold = 0.25) ~(old : Report.t) ~(new_ : Report.t) ()
    =
  let lines = ref [] in
  let push l = lines := l :: !lines in
  List.iter
    (fun name ->
      match (Report.find_probe old name, Report.find_probe new_ name) with
      | None, None -> ()
      | Some _, None -> push (whole_probe_line ~probe:name Removed)
      | None, Some _ -> push (whole_probe_line ~probe:name Added)
      | Some op, Some np ->
          List.iter
            (fun mname ->
              match
                compare_metric ~threshold ~adv_threshold ~probe:name
                  (Report.find_metric op mname) (Report.find_metric np mname) mname
              with
              | Some l -> push l
              | None -> ())
            (union_names (metric_names op) (metric_names np)))
    (union_names (probe_names old) (probe_names new_));
  let lines = List.rev !lines in
  let verdict =
    List.fold_left
      (fun acc l ->
        match (acc, l.status) with
        | Fail, _ | _, Regressed -> Fail
        | Warn, _ | _, (Changed | Added | Removed) -> Warn
        | Pass, (Unchanged | Improved) -> Pass)
      Pass lines
  in
  (lines, verdict)

(* ------------------------------------------------------------------ *)
(* Rendering. Self-contained (benchgate's own Report module shadows the
   report library, so Report.Table is out of reach here).               *)
(* ------------------------------------------------------------------ *)

let cell_opt = function
  | None -> "-"
  | Some v ->
      if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
      else Printf.sprintf "%.4g" v

let cell_pct = function None -> "-" | Some p -> Printf.sprintf "%+.2f%%" p

let render_rows header rows =
  let widths = Array.of_list (List.map String.length header) in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- Stdlib.max widths.(i) (String.length cell)))
    rows;
  let buf = Buffer.create 1024 in
  let pad i s = s ^ String.make (widths.(i) - String.length s) ' ' in
  let emit_row cells =
    Buffer.add_string buf "  ";
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad i cell))
      cells;
    Buffer.add_char buf '\n'
  in
  emit_row header;
  emit_row (List.mapi (fun i _ -> String.make widths.(i) '-') header);
  List.iter emit_row rows;
  Buffer.contents buf

let render ?(threshold = 0.02) ~(old : Report.t) ~(new_ : Report.t) lines verdict =
  let interesting = List.filter (fun l -> l.status <> Unchanged) lines in
  let rows =
    List.map
      (fun l ->
        [
          l.probe;
          l.metric;
          (match l.kind with Some k -> Report.kind_tag k | None -> "-");
          (match l.polarity with Some p -> Report.polarity_tag p | None -> "-");
          cell_opt l.old_v;
          cell_opt l.new_v;
          cell_pct l.delta_pct;
          status_name l.status;
        ])
      interesting
  in
  let count st = List.length (List.filter (fun l -> l.status = st) lines) in
  let header =
    Printf.sprintf
      "bench-diff: %s -> %s (gate: a deterministic cost up or benefit down by %.0f%%, or any \
       change to an exact metric, hard-fails)\n"
      old.Report.label new_.Report.label (100.0 *. threshold)
  in
  let body =
    if interesting = [] then "  no differences\n"
    else
      render_rows [ "probe"; "metric"; "class"; "polarity"; "old"; "new"; "delta"; "status" ] rows
  in
  let summary =
    Printf.sprintf
      "%s: %d comparisons, %d regressed, %d improved, %d advisory-changed, %d added, %d removed\n"
      (verdict_name verdict) (List.length lines) (count Regressed) (count Improved)
      (count Changed) (count Added) (count Removed)
  in
  header ^ body ^ summary
