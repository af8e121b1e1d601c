(** Regression diff between two {!Report.t} values: the binding half of the
    perf gate.

    Each deterministic metric is judged by its {!Report.polarity}, taken
    from the old (baseline) report when it has the metric. A
    {!Report.Cost} that grew, or a {!Report.Benefit} that fell, by more
    than [threshold] (relative; default 2%) is a {!Regressed} line and
    makes the verdict {!Fail}; a move the other way past the threshold is
    {!Improved} (still {!Pass}). A zero baseline is a guarantee: a cost
    leaving zero regresses, a benefit leaving zero improves. A
    {!Report.Exact} metric regresses on any change at all. Advisory
    metrics (wall time) can at most {!Warn}, and only past the looser
    [adv_threshold] (default 25%) so timer jitter does not drown the
    table. Probes or metrics present on only one side —
    metric-set skew between an old baseline and a new suite — never fail
    the gate: they surface as {!Added} / {!Removed} warnings. *)

type status = Unchanged | Improved | Regressed | Changed | Added | Removed

type line = {
  probe : string;
  metric : string;
  kind : Report.kind option;  (** [None] for whole-probe Added/Removed lines *)
  polarity : Report.polarity option;  (** [None] for whole-probe lines *)
  old_v : float option;
  new_v : float option;
  delta_pct : float option;  (** [None] when either side is missing or old = 0 *)
  status : status;
}

type verdict = Pass | Warn | Fail

val status_name : status -> string

val verdict_name : verdict -> string

val compare :
  ?threshold:float -> ?adv_threshold:float -> old:Report.t -> new_:Report.t -> unit -> line list * verdict
(** Lines come out in the old report's probe order, new-only probes last;
    within a probe, old metric order then new-only metrics. *)

val exit_code : verdict -> int
(** [Fail -> 1], [Pass | Warn -> 0]: only deterministic regressions gate. *)

val render : ?threshold:float -> old:Report.t -> new_:Report.t -> line list -> verdict -> string
(** Human delta table (non-[Unchanged] lines, plus a one-line summary). *)
