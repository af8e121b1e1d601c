(** Scalar counters collected during a simulated run.

    One [Metrics.t] is attached to each run; the experiment harness reads
    it to build the paper's figures (promotion nesting levels for Fig. 5,
    heartbeat detection rates for Fig. 13, overhead component attribution
    for Figs. 7 and 8).

    Since the trace redesign, [Metrics] holds {e only} counters. Every
    discrete runtime occurrence (a promotion, a steal, a detected
    heartbeat, an injected fault, ...) is emitted exactly once as an
    {!Obs.Trace.event}; the run wires an always-on {!counting_sink} that
    derives these counters from that stream. Event {e logs} — chunk-size
    evolution, execution timelines, downgrade schedules — live in the
    captured trace ({!Run_result.t.trace}) and are queried through
    [Obs.Trace_query]. *)

(** What an overhead cycle was spent on. Charges name their kind by
    constructor, so a misspelt kind is a compile error rather than a
    silently empty bucket. *)
type kind =
  | Poll  (** software heartbeat poll *)
  | Promotion_branch  (** latch call and branch on the handler's result *)
  | Chunking  (** chunk-loop bookkeeping *)
  | Chunk_transfer  (** residual chunk counter carried across invocations *)
  | Outline_call  (** calling an outlined loop slice *)
  | Closure  (** loading a slice's context at entry *)
  | Lst_store  (** parent storing a child's iteration space *)
  | Promotion  (** promotion handler and deque pushes *)
  | Reduction  (** combining a split loop's reduction locals *)
  | Join
  | Steal
  | Membus  (** bandwidth stall past the compute cost *)
  | Interrupt  (** interrupt or signal delivery plus rollforward lookup *)
  | Fault_stall  (** injected worker stall *)
  | Idle_backoff  (** backoff between dry steal rounds under faults *)
  | Omp_fork
  | Omp_setup
  | Omp_dispatch
  | Omp_contention
  | Omp_spawn
  | Omp_reduce
  | Omp_join

val kinds : kind list
(** Every kind, in declaration order. *)

val kind_name : kind -> string
(** The journal and report name: ["poll"], ["promotion-branch"],
    ["omp-dispatch"], ... *)

val kind_of_name : string -> kind option

type t = {
  mutable heartbeats_generated : int;
  mutable heartbeats_detected : int;
  mutable heartbeats_missed : int;
  mutable polls : int;
  mutable promotions : int;
  promotions_by_level : int array;  (** indexed by nesting level, up to 8 *)
  mutable tasks_spawned : int;
  mutable leftover_tasks_run : int;
  mutable steals : int;
  mutable steal_attempts : int;
  mutable join_slow_paths : int;
  mutable chunk_updates : int;
  mutable work_cycles : int;  (** useful (baseline) body cycles *)
  mutable overhead_cycles : int;  (** everything that is not body work *)
  overhead_by_kind : int array;
      (** cycles per {!kind}, indexed by declaration order; read it through
          {!overhead_of} and {!overheads} *)
  mutable overhead_touched : int;
      (** bit set of the kinds ever charged, 0-cycle charges included *)
  mutable faults_beats_dropped : int;
      (** injected heartbeat-delivery losses ({!Fault_injector}) *)
  mutable faults_beats_delayed : int;  (** injected delivery-jitter events *)
  mutable faults_steals_failed : int;  (** injected steal-attempt failures *)
  mutable faults_stalls : int;  (** injected per-worker stall windows *)
  mutable faults_stall_cycles : int;  (** total cycles lost to stalls *)
  mutable faults_wakeups_delayed : int;
      (** injected parked-worker wakeup suppressions (domains backend) *)
  mutable downgrades : int;
      (** watchdog fallbacks from an interrupt mechanism to software
          polling; the per-worker schedule is in the trace *)
}

val create : unit -> t

val add_overhead : t -> kind -> int -> unit
(** Bump both the per-kind attribution and the overhead total, and mark
    the kind charged (even for 0 cycles). Cycle attribution is not a
    discrete event, so it stays a direct call; it allocates nothing. *)

val promotion_at_level : t -> int -> unit

val overhead_of : t -> kind -> int

val overheads : t -> (kind * int) list
(** The kinds ever charged with their cycles, in declaration order. *)

val set_overhead : t -> kind -> int -> unit
(** Set one kind's cycles and mark it charged, leaving the total alone
    (journal restore). *)

val promotion_share_by_level : t -> float array
(** Percentage of promotions per nesting level (sums to 100 when any). *)

val detection_rate : t -> float
(** Detected heartbeats as a percentage of generated ones (100.0 if none
    were generated). *)

val downgrade_count : t -> int

val faults_injected : t -> int
(** Total injected fault events (drops + delays + steal failures + stalls). *)

val count_event : t -> Obs.Trace.event -> unit
(** Apply one event to the counters; {!counting_sink} per event. *)

val counting_sink : t -> Obs.Trace.Sink.t
(** The always-on sink every run tees with the caller's: it folds the
    event stream into these counters and stores nothing. *)

val counters : t -> (string * int) list
(** Every scalar counter as (name, value), for the experiment journal. The
    non-scalar state (per-level promotions, overhead attribution) is
    serialized separately by the checkpoint layer. *)

val restore_counter : t -> string -> int -> unit
(** Set one scalar counter by its {!counters} name; unknown names are
    ignored (journal forward-compatibility). *)
