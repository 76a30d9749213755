(** The hybrid scheduler — Horse's core contribution.

    The scheduler owns the virtual clock and the event queue and runs
    in one of two modes (paper, §2):

    - {b DES} (Discrete Event Simulation): the clock jumps straight to
      the timestamp of the next event. This is the fast mode used when
      only (fluid) data-plane traffic is active.
    - {b FTI} (Fixed Time Increment): the clock advances in small
      fixed increments, and every event is delivered inside the
      increment that contains its timestamp. This reproduces the
      real-time interleaving that real routing daemons experience.

    In the paper FTI steps every increment, because its daemons are
    real processes running in wall time. Here every daemon is
    in-process and event-driven: it acts only when a message arrives
    or one of its timers fires, so an increment with no event due does
    nothing. Both modes therefore run through one event loop, events
    fire at their exact timestamps, and FTI is accounting on top of
    it: {!run} counts each episode's increments in closed form, places
    the return to DES on the episode's increment grid and, with
    [fti_pacing], sleeps so that virtual time keeps pace with wall
    time. Measured on the four [bench/e2e] workloads at seed 42,
    running FTI through the DES step changed no FIB fingerprint, fault
    trace, message count or causal-node count.

    The transition rules are exactly the paper's: any control-plane
    activity (reported by the Connection Manager via
    {!control_activity}) forces FTI mode and refreshes a quiet timer;
    after a user-defined timeout with no control activity the
    scheduler falls back to DES, at the first boundary of the FTI
    episode's increment grid at or after the timeout (the grid is
    anchored where the episode starts: the switch to FTI, or the start
    of {!run} when the scheduler is already in FTI). All transitions
    are recorded and returned in {!stats} (this drives the Figure 1
    reproduction).

    Every scheduler owns (or is given) a telemetry registry and keeps
    its counters there — [horse_sched_events_total],
    [horse_sched_wall_in_des_seconds] and friends; {!stats} is a view
    over those metrics, so exporters and {!stats} can never
    disagree. *)

type t

type mode = Des | Fti

val pp_mode : Format.formatter -> mode -> unit
val mode_to_string : mode -> string

type config = {
  fti_increment : Time.t;
      (** FTI step, default 1 ms: the grid an episode's increments are
          counted on and its return to DES falls on. It costs no event
          loop work. *)
  quiet_timeout : Time.t;
      (** control-plane silence needed to return to DES; default 1 s *)
  fti_pacing : float;
      (** 0 (default) runs FTI as fast as possible; [x > 0] sleeps
          before each FTI event and at each episode's end until its
          due wall time, so FTI advances at [x]× wall speed — only
          useful for interactive demonstrations. *)
  max_wall_s : float;
      (** Wall-clock watchdog: a {!run} that exceeds this many wall
          seconds is aborted gracefully after the event in progress —
          {!run} returns a snapshot with [aborted = true] and
          registered {!on_abort} hooks fire first, so callers can
          still flush telemetry and print a partial report. [0.0]
          (default) disables it. *)
  causal : bool;
      (** default [true]: record the causal graph — every interesting
          occurrence ({!cause_point}) becomes a node whose parent is
          the occurrence that caused it, with the edge carried
          automatically through {!schedule_at}, {!defer} and {!every}.
          [false] makes every causal primitive a no-op (no nodes, no
          detail strings formatted, behaviour byte-identical — only
          wall cost differs, measured as [trace.overhead_pct] by
          [bench/e2e] and gated by [@trace-smoke]). *)
}

val default_config : config

type transition = {
  at : Time.t;
  wall : float;  (** wall seconds since [run] started *)
  from_mode : mode;
  to_mode : mode;
  reason : string;
}

type stats = {
  events_executed : int;
  fti_increments : int;
      (** increments the virtual clock advanced by in FTI: per episode
          (split at each {!run}'s start), its length in increments,
          the last one clipped at the horizon *)
  fti_increments_skipped : int;
      (** of {!field-fti_increments}, those holding no event that are
          neither their episode's first nor its last: the ones a loop
          stepping every increment could skip *)
  poller_ticks : int;
      (** always 0: no process polls. Kept because benchmark reports
          still read it. *)
  transitions : transition list;  (** chronological *)
  virtual_in_fti : Time.t;
  virtual_in_des : Time.t;
  wall_in_fti : float;
  wall_in_des : float;
  wall_total : float;
  end_time : Time.t;
  aborted : bool;
      (** the run was cut short by the [max_wall_s] watchdog *)
}

val pp_stats : Format.formatter -> stats -> unit

val pp_transition : Format.formatter -> transition -> unit
(** ["[1.003s] FTI -> DES (quiet timeout)"]. *)

val pp_timeline : Format.formatter -> stats -> unit
(** The whole transition list, one per line, as the Figure 1
    timeline. *)

val create :
  ?config:config -> ?registry:Horse_telemetry.Registry.t -> unit -> t
(** Without [?registry], the scheduler creates a private registry so
    concurrent experiments in one process never share counters. Pass
    one explicitly (the same [Horse_telemetry.Registry.t] to each) to
    aggregate across schedulers.
    @raise Invalid_argument if [fti_increment] is under 1 us or
    [quiet_timeout], [fti_pacing] or [max_wall_s] is negative. *)

val config : t -> config
val now : t -> Time.t

val registry : t -> Horse_telemetry.Registry.t
(** The registry holding this scheduler's metrics; subsystems built on
    this scheduler (Connection Manager, speakers, the fluid data
    plane) register their own metrics here. *)

(** {2 Causal tracing}

    When [config.causal] is set the scheduler owns a {!Causal.t} and
    an {e ambient cause} — the id of the occurrence responsible for
    whatever code is currently running. {!cause_point} records a new
    occurrence under the ambient cause and makes it ambient;
    {!schedule_at}, {!schedule_after}, {!every} and {!defer} capture
    the ambient cause at registration and restore it when the action
    fires, so provenance follows timers, delayed deliveries and
    coalesced recomputes for free. With tracing off, every primitive
    here is a no-op returning {!Causal.none}. {!snapshot} copies the
    graph's {!Causal.length} and {!Causal.dropped} into
    [horse_causal_nodes_total] and [horse_causal_dropped_total] (both 0
    with tracing off). *)

val causal : t -> Causal.t option
(** The causal graph, when tracing is enabled. *)

val current_cause : t -> Causal.id
(** The ambient cause ({!Causal.none} when tracing is off or nothing
    interesting is on the stack). *)

val cause_point : t -> Causal.kind -> int -> Causal.id
(** [cause_point t kind arg] records an occurrence of [kind] with
    payload [arg] at the current virtual time under the ambient cause
    and makes it the new ambient cause. Nothing is formatted or
    allocated: the kind's printer turns [arg] into the detail string
    when the graph is read. Callers creating {e sibling} points in a
    loop must wrap each iteration in {!protect_cause}, or the siblings
    chain under one another. *)

val text : t -> string -> int
(** The payload for a {!Causal.text_kind} node: stores the string in
    the graph's side table ({!Causal.text}); 0, storing nothing, with
    tracing off. For rare free-text details only. *)

val local_kind : t -> string -> (int -> string) -> Causal.kind
(** Registers a kind on this run's graph ({!Causal.local_kind}), for
    printers that need run state such as a topology; a fabric calls
    it when it is built. With tracing off nothing is registered and
    the returned kind is never recorded. *)

val with_cause : t -> Causal.id -> (unit -> 'a) -> 'a
(** Runs [f] with the given ambient cause, restoring the previous one
    after (exception-safe). Used to re-attach work to a cause captured
    earlier — e.g. a message sitting in a mailbox. *)

val protect_cause : t -> (unit -> 'a) -> 'a
(** Runs [f] and restores the ambient cause afterwards
    (exception-safe), without changing it first — the save/restore
    bracket for loops that create sibling {!cause_point}s. *)

val snapshot : t -> stats
(** The current statistics view over the registry, readable at any
    point (including mid-run, from an event). *)

val with_span : t -> name:string -> (unit -> 'a) -> 'a
(** Brackets [f] in a telemetry span recorded against this scheduler's
    virtual clock (and wall time); spans nest. Exception-safe. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> Event_queue.handle
(** Schedules an event at an absolute virtual time; a time in the past
    is clamped to [now]. *)

val schedule_after : t -> Time.t -> (unit -> unit) -> Event_queue.handle
(** Relative variant; a negative delay is clamped to zero. *)

val cancel : Event_queue.handle -> unit

val reschedule : t -> Event_queue.handle -> Time.t -> unit
(** Re-aims a scheduled event at a new absolute time (clamped to
    [now]), reusing its action, on the same handle. An event
    that already fired or was cancelled is re-armed, which is exactly
    what a deadline timer wants: one handle per deadline, re-aimed on
    every refresh. *)

val defer : t -> (unit -> unit) -> unit
(** Registers end-of-instant work: [f] runs before the virtual clock
    advances past the current instant — after every event scheduled at
    the current timestamp has executed, and before {!run} returns.
    Callbacks run in registration order and may defer again;
    everything drains before time moves. This is the coalescing hook:
    a subsystem asked to recompute k times inside one event batch
    defers once and pays for one recomputation. Work deferred while
    the scheduler is idle runs when the next {!run} starts (before
    its first event). *)

type recurring
(** A repeating event; lives until cancelled or the run ends. *)

val every : t -> Time.t -> (unit -> unit) -> recurring
(** [every t period f] runs [f] one period from now and every [period]
    thereafter.
    @raise Invalid_argument if the period is not positive. *)

val cancel_recurring : recurring -> unit

val control_activity : ?reason:string -> t -> unit
(** Report control-plane activity at the current instant: switches to
    FTI if in DES (recording a transition) and refreshes the quiet
    timer. Called by the Connection Manager, never by data-plane
    code. *)

val on_abort : t -> (unit -> unit) -> unit
(** Registers a hook run (in registration order) when the [max_wall_s]
    watchdog aborts a run, before {!run} returns. Use it to flush
    exporters or mark partial results. *)

val aborted : t -> bool
(** Whether the last (or current) run was aborted by the watchdog. *)

val run : ?until:Time.t -> t -> stats
(** Executes events until [until] (virtual), or — when [until] is
    omitted — until the event queue drains while in DES mode. The
    clock finishes exactly at [until] when given. Re-entrant calls are
    a programming error.
    @raise Invalid_argument if called while already running. *)
