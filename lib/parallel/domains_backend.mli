(** Real OCaml 5 domains as a scheduler backend
    ({!Sched.Backend_intf.BACKEND}).

    Worker identity lives in domain-local storage ({!register}); deques
    are the lock-free Chase–Lev {!Ws_deque}; victim selection is a
    per-worker xorshift; idling spins briefly, then parks on a condition
    variable until a wakeup ticket arrives (or the monitor's bounded
    park timeout fires). An untraced backend is fully lock-free on the
    scheduling fast path. A traced one (enabled sink) linearizes every
    deque-op + emission group under one global mutex and stamps events
    with a logical tick, so {!Sanitizer.Checker} validates native
    streams — shadow-deque replay included — with the same invariant set
    it runs on simulated ones.

    An attached {!Sim.Fault_injector} ({!set_injector}) arms chaos mode:
    steal attempts can be vetoed and parked-worker wakeups suppressed
    from per-worker seeded decision streams, reproducible from
    [(plan seed, P)]. Without an injector every chaos hook
    short-circuits on one bool.

    Given a beat period, the monitor domain ({!start_monitor}) is the
    heartbeat source — the paper's ping thread: it sets per-worker beat
    flags, so a poll is a read of the worker's own {!slot}. *)

type t

(** One worker's hot state, padded so that no two workers' records share
    a cache line (OCaml 5.1 has no [Atomic.make_contended]; the [pad*]
    fields are never used). Every field is an immediate.

    Writers: the monitor writes [generated] and [missed] and sets [beat];
    the owning worker clears [beat] and writes every other field. The
    interpreter running on the backend ({!Native_run}) owns the records
    and hands them to {!start_monitor}. Cross-domain reads are racy by
    design — the monitor's samples and the owner's flag read tolerate
    staleness — and the end-of-run sums are exact because they are read
    after every domain is joined. *)
type slot = {
  index : int;  (** the worker this record belongs to *)
  mutable beat : bool;  (** a delivered, not yet consumed heartbeat *)
  mutable generated : int;  (** beats the monitor delivered or overwrote *)
  mutable missed : int;  (** beats overwritten before they were consumed *)
  mutable detected : int;  (** beats the owner consumed at a poll or latch *)
  mutable polls : int;  (** leaf polls *)
  mutable poll_beat_at : int;  (** [Every_polls]: poll count of the next beat *)
  mutable progress : int;  (** scheduling points passed (every beat check) *)
  mutable work : int;  (** body work, in the program's cycle units *)
  mutable stall_left : int;  (** chaos: polls left in an injected stall *)
  mutable since_beat : int;  (** chaos: consecutive suppressed beats *)
  mutable downgraded : bool;  (** chaos: watchdog rung 1 tripped *)
  mutable pad0 : int;
  mutable pad1 : int;
  mutable pad2 : int;
  mutable pad3 : int;
  mutable pad4 : int;
  mutable pad5 : int;
  mutable pad6 : int;
  mutable pad7 : int;
}

val make_slot : worker:int -> slot
(** A zeroed record for [worker]. *)

val register : worker:int -> unit
(** Bind the calling domain to a worker index (domain-local). The pool
    registers the caller as worker 0 and each spawned domain as 1..n-1. *)

val create : workers:int -> trace:Obs.Trace.Sink.t -> capture:bool -> t

val set_injector : t -> Sim.Fault_injector.t -> unit
(** Attach a fault injector (arming chaos mode iff it is active). Must be
    called before worker domains start — the [chaos] flag is read without
    synchronization on the scheduling fast path. *)

val injector : t -> Sim.Fault_injector.t
(** The attached injector ({!Sim.Fault_injector.inactive} by default). *)

val rng_word : t -> worker:int -> int
(** [worker]'s victim-selection xorshift state word (checkpointed at the
    single-worker pause boundary). *)

val deque_task_ids : t -> worker:int -> int list
(** Task ids in [worker]'s deque, oldest (steal end) first. Quiescent
    snapshots only (the single-worker pause boundary). *)

val wake_all : t -> unit
(** Unconditionally wake every parked worker (never chaos-suppressed);
    the shutdown path pairs this with the core's finished flag. *)

val start_monitor : ?tick:(unit -> unit) -> ?beat:float * slot array -> t -> unit
(** Spawn the monitor domain (no-op when already running, or when
    [workers = 1] and no [beat] is given). Every 200 µs it broadcasts
    the park condition, so a lost or chaos-suppressed wakeup strands a
    worker for at most one period, and calls [tick] — the watchdog's
    sampling hook.

    With [beat = (us, slots)] it is also the heartbeat source: it wakes
    every [min us 200] µs, reads the clock once, and for each worker
    whose [us] period has elapsed delivers a beat to its record in
    [slots] (indexed by worker) if the worker is busy — setting [beat],
    or counting the beat [missed] when the previous one is still
    unconsumed. The broadcast and [tick] keep
    their 200 µs cadence whatever the beat period. *)

val stop_monitor : t -> unit
(** Stop and join the monitor domain, if running. Call only after the
    worker domains have been joined — the monitor is what bounds their
    park waits during shutdown races. *)

val is_busy : t -> worker:int -> bool
(** The [set_busy] flag for [worker] — true while it runs inside an
    outermost task. Monitor-sampled (racy reads are fine: the watchdog
    tolerates sampling error, it only needs eventual accuracy). *)

(** {2 BACKEND implementation} *)

val num_workers : t -> int

val worker_id : t -> int

val now : t -> int

val capture : t -> bool

val critical : t -> (unit -> unit) -> unit

val emit : t -> Obs.Trace.event -> unit

val push : t -> Sched.Task.t -> unit

val pop : t -> Sched.Task.t option

val steal_from : t -> victim:int -> Sched.Task.t option

val deque_empty : t -> worker:int -> bool

val random_victim : t -> int

val steal_vetoed : t -> bool

val keep_stolen : t -> Sched.Task.t -> bool

val pre_task : t -> unit

val on_task_claim : t -> unit

val wake_one : t -> unit

val unpark : t -> worker:int -> unit

val idle : t -> unit

val set_busy : t -> worker:int -> busy:bool -> unit

val charge_push : t -> unit

val charge_pop : t -> unit

val charge_steal_attempt : t -> unit

val charge_steal_success : t -> unit

val charge_join_slow : t -> unit
