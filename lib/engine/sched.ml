module Registry = Horse_telemetry.Registry
module Counter = Registry.Counter
module Gauge = Registry.Gauge

type mode = Des | Fti

let mode_to_string = function Des -> "DES" | Fti -> "FTI"
let pp_mode fmt m = Format.pp_print_string fmt (mode_to_string m)

type config = {
  fti_increment : Time.t;
  quiet_timeout : Time.t;
  fti_pacing : float;
  max_wall_s : float;
  causal : bool;
}

let default_config =
  {
    fti_increment = Time.of_ms 1;
    quiet_timeout = Time.of_sec 1.0;
    fti_pacing = 0.0;
    max_wall_s = 0.0;
    causal = true;
  }

type transition = {
  at : Time.t;
  wall : float;
  from_mode : mode;
  to_mode : mode;
  reason : string;
}

type stats = {
  events_executed : int;
  fti_increments : int;
  fti_increments_skipped : int;
  poller_ticks : int;
  transitions : transition list;
  virtual_in_fti : Time.t;
  virtual_in_des : Time.t;
  wall_in_fti : float;
  wall_in_des : float;
  wall_total : float;
  end_time : Time.t;
  aborted : bool;
}

(* The scheduler's own bookkeeping lives in the telemetry registry;
   {!stats} is a view over these metrics. Virtual residency is kept
   exactly in integer-microsecond counters, with float-second gauges
   mirrored for exporters. *)
type metrics = {
  m_events : Counter.t;
  m_fti_increments : Counter.t;
  m_fti_skipped : Counter.t;
  m_transitions : Counter.t;
  m_virt_des_us : Counter.t;
  m_virt_fti_us : Counter.t;
  g_virt_des_s : Gauge.t;
  g_virt_fti_s : Gauge.t;
  g_wall_des_s : Gauge.t;
  g_wall_fti_s : Gauge.t;
  g_wall_total_s : Gauge.t;
  g_mode : Gauge.t;
  g_end_time_s : Gauge.t;
  m_watchdog_aborts : Counter.t;
  m_causal_nodes : Counter.t;
  m_causal_dropped : Counter.t;
}

let make_metrics reg =
  let counter = Registry.counter reg ~subsystem:"sched" in
  let gauge = Registry.gauge reg ~subsystem:"sched" in
  {
    m_events =
      counter ~help:"Events executed by the hybrid scheduler" "events_total";
    m_fti_increments =
      counter ~help:"Fixed-time increments the FTI clock advanced by"
        "fti_increments_total";
    m_fti_skipped =
      counter
        ~help:"FTI increments holding no event, other than each episode's \
               first and last"
        "fti_increments_skipped_total";
    m_transitions =
      counter ~help:"DES<->FTI mode transitions" "transitions_total";
    m_virt_des_us =
      counter ~help:"Virtual time spent in DES mode, microseconds"
        "virtual_in_des_us_total";
    m_virt_fti_us =
      counter ~help:"Virtual time spent in FTI mode, microseconds"
        "virtual_in_fti_us_total";
    g_virt_des_s =
      gauge ~help:"Virtual time spent in DES mode, seconds"
        "virtual_in_des_seconds";
    g_virt_fti_s =
      gauge ~help:"Virtual time spent in FTI mode, seconds"
        "virtual_in_fti_seconds";
    g_wall_des_s =
      gauge ~help:"Wall time spent in DES mode, seconds" "wall_in_des_seconds";
    g_wall_fti_s =
      gauge ~help:"Wall time spent in FTI mode, seconds" "wall_in_fti_seconds";
    g_wall_total_s =
      gauge ~help:"Wall time spent inside Sched.run, seconds"
        "wall_total_seconds";
    g_mode = gauge ~help:"Current execution mode (0 = DES, 1 = FTI)" "mode";
    g_end_time_s =
      gauge ~help:"Virtual clock at the last snapshot, seconds"
        "end_time_seconds";
    m_watchdog_aborts =
      counter ~help:"Runs aborted by the wall-clock watchdog"
        "watchdog_aborts_total";
    m_causal_nodes =
      Registry.counter reg ~subsystem:"causal"
        ~help:"Nodes recorded in the causal graph" "nodes_total";
    m_causal_dropped =
      Registry.counter reg ~subsystem:"causal"
        ~help:"Causal nodes dropped at the graph's node cap" "dropped_total";
  }

(* The accounting of one mode segment: the stretch of a run since its
   start or the last transition. An FTI segment is one episode's
   increment grid, anchored at the segment's start. *)
type totals = { virt_us : int; wall : float; increments : int; skipped : int }

let no_totals = { virt_us = 0; wall = 0.0; increments = 0; skipped = 0 }

type t = {
  cfg : config;
  queue : Event_queue.t;
  reg : Registry.t;
  m : metrics;
  mutable clock : Time.t;
  mutable cur_mode : mode;
  mutable last_activity : Time.t;
  mutable running : bool;
  mutable rev_transitions : transition list;
  mutable run_start_wall : float;
  mutable abort_flag : bool;
  mutable rev_abort_hooks : (unit -> unit) list;
  deferred : (unit -> unit) Queue.t;
  causal_g : Causal.t option;
  mutable cur_cause : Causal.id;
  mutable seg_virt0 : Time.t;
  mutable seg_wall0 : float;
  mutable seg_stepped : int;
      (* the segment's first increment and each later one that holds
         an executed event: the increments a stepping loop could not
         have skipped, short of the last *)
  mutable seg_stepped_end : Time.t;  (* end of the latest such increment *)
  mutable seg_published : totals;  (* already added to the registry *)
  mutable causal_published : int * int;
      (* causal nodes and drops already added to the registry: a
         registry shared between schedulers sums their growth *)
}

let gauge_of_mode = function Des -> 0.0 | Fti -> 1.0

let create ?(config = default_config) ?registry () =
  if Time.to_us config.fti_increment < 1 then
    invalid_arg "Sched.create: fti_increment must be at least 1 us";
  if Time.(config.quiet_timeout < Time.zero) then
    invalid_arg "Sched.create: quiet_timeout must be non-negative";
  if not (config.fti_pacing >= 0.0) then
    invalid_arg "Sched.create: fti_pacing must be non-negative";
  if not (config.max_wall_s >= 0.0) then
    invalid_arg "Sched.create: max_wall_s must be non-negative";
  let reg =
    match registry with Some reg -> reg | None -> Registry.create ()
  in
  let m = make_metrics reg in
  Gauge.set m.g_mode (gauge_of_mode Des);
  {
    cfg = config;
    queue = Event_queue.create ();
    reg;
    m;
    clock = Time.zero;
    cur_mode = Des;
    last_activity = Time.zero;
    running = false;
    rev_transitions = [];
    run_start_wall = Wall.now ();
    abort_flag = false;
    rev_abort_hooks = [];
    deferred = Queue.create ();
    causal_g = (if config.causal then Some (Causal.create ()) else None);
    cur_cause = Causal.none;
    seg_virt0 = Time.zero;
    seg_wall0 = 0.0;
    seg_stepped = 1;
    seg_stepped_end = config.fti_increment;
    seg_published = no_totals;
    causal_published = (0, 0);
  }

let config t = t.cfg
let now t = t.clock
let registry t = t.reg

(* --- causal tracing ---------------------------------------------------- *)

let causal t = t.causal_g
let current_cause t = t.cur_cause

(* The ambient cause travels with scheduled work: an action wrapped at
   schedule time re-establishes the cause that was ambient when it was
   scheduled, so timers, deferred recomputes and delayed deliveries
   inherit their trigger's provenance with no per-callsite wiring.
   With tracing off the action is returned untouched — zero cost. *)
let wrap_cause t action =
  match t.causal_g with
  | None -> action
  | Some _ ->
      let cause = t.cur_cause in
      fun () ->
        let saved = t.cur_cause in
        t.cur_cause <- cause;
        action ();
        t.cur_cause <- saved

let cause_point t kind arg =
  match t.causal_g with
  | None -> Causal.none
  | Some g ->
      let id = Causal.node g ~at:t.clock ~kind ~arg ~parent:t.cur_cause in
      t.cur_cause <- id;
      id

let text t s = match t.causal_g with None -> 0 | Some g -> Causal.text g s

(* Stands in for a graph-local kind when tracing is off; no node is
   ever recorded under it. *)
let untraced_kind = Causal.kind "untraced" (fun _ -> "")

let local_kind t name print =
  match t.causal_g with
  | None -> untraced_kind
  | Some g -> Causal.local_kind g name print

(* Hand-rolled save/restore rather than [Fun.protect]: these brackets
   wrap every channel send and routing decision, and Fun.protect's
   finally-closure allocation is measurable there. *)
let with_cause t id f =
  match t.causal_g with
  | None -> f ()
  | Some _ -> (
      let saved = t.cur_cause in
      t.cur_cause <- id;
      match f () with
      | x ->
          t.cur_cause <- saved;
          x
      | exception e ->
          t.cur_cause <- saved;
          raise e)

let protect_cause t f =
  match t.causal_g with
  | None -> f ()
  | Some _ -> (
      let saved = t.cur_cause in
      match f () with
      | x ->
          t.cur_cause <- saved;
          x
      | exception e ->
          t.cur_cause <- saved;
          raise e)

let with_span t ~name f =
  Horse_telemetry.Span.with_span
    (Horse_telemetry.Registry.spans t.reg)
    ~name
    ~now_us:(fun () -> Int64.of_int (Time.to_us t.clock))
    f

(* End-of-instant work queue: callbacks registered here run before the
   virtual clock advances past the current instant (and before [run]
   returns). Subsystems use it to coalesce work triggered many times
   inside one event batch — e.g. the fluid data plane folds a burst of
   k flow starts into one fair-share solve. Callbacks may defer again;
   everything drains before time moves. *)
let defer t f = Queue.add (wrap_cause t f) t.deferred

let has_deferred t = not (Queue.is_empty t.deferred)

let flush_deferred t =
  while not (Queue.is_empty t.deferred) do
    (Queue.pop t.deferred) ()
  done

(* The ambient cause rides in the entry itself rather than in a
   wrapping closure: closures stored in the event queue survive until
   fire time, so they get promoted out of the minor heap — measurably
   the dominant cost of tracing on storm runs. The pop sites restore
   the cause before running the action. *)
let schedule_at t at action =
  Event_queue.schedule t.queue ~cause:t.cur_cause (Time.max at t.clock) action

let schedule_after t delay action =
  schedule_at t (Time.add t.clock delay) action

let cancel = Event_queue.cancel

let reschedule t h at = Event_queue.reschedule h (Time.max at t.clock)

type recurring = {
  mutable cancelled : bool;
  mutable pending : Event_queue.handle option;
}

(* One event handle per recurring timer, re-aimed in place after each
   firing, so a periodic timer allocates nothing per period. *)
let every t period f =
  if Time.(period <= Time.zero) then
    invalid_arg "Sched.every: period must be positive";
  let r = { cancelled = false; pending = None } in
  let at = ref (Time.add t.clock period) in
  let fire () =
    f ();
    if not r.cancelled then begin
      (* Anchor the cadence on scheduled times, not execution times,
         so periods never drift. *)
      at := Time.add !at period;
      match r.pending with
      | Some h -> Event_queue.reschedule h (Time.max !at t.clock)
      | None -> ()
    end
  in
  r.pending <- Some (schedule_at t !at fire);
  r

let cancel_recurring r =
  r.cancelled <- true;
  Option.iter Event_queue.cancel r.pending

(* --- mode accounting ------------------------------------------------- *)

(* The increments of the FTI grid it takes to cover [span], rounded
   up. *)
let cells t span =
  let inc = Time.to_us t.cfg.fti_increment in
  (Time.to_us span + inc - 1) / inc

(* Adds the open segment's growth since it was last published to the
   registry, so it can run at any point. An FTI segment's increments
   are the grid cells from its start to the clock, the last one
   clipped; a loop stepping every increment would step the first, each
   holding an event, and the last, and could skip the rest. *)
let publish t =
  let span = Time.sub t.clock t.seg_virt0 in
  let virt_us = Time.to_us span in
  let wall = if t.running then Wall.now () -. t.seg_wall0 else 0.0 in
  let increments = match t.cur_mode with Fti -> cells t span | Des -> 0 in
  let stepped =
    if increments = 0 then 0
    else if Time.(t.clock > t.seg_stepped_end) then t.seg_stepped + 1
    else t.seg_stepped
  in
  let was = t.seg_published in
  t.seg_published <-
    { virt_us; wall; increments; skipped = increments - stepped };
  let virt_c, wall_g =
    match t.cur_mode with
    | Des -> (t.m.m_virt_des_us, t.m.g_wall_des_s)
    | Fti -> (t.m.m_virt_fti_us, t.m.g_wall_fti_s)
  in
  Counter.add virt_c (virt_us - was.virt_us);
  Gauge.add wall_g (wall -. was.wall);
  Counter.add t.m.m_fti_increments (increments - was.increments);
  Counter.add t.m.m_fti_skipped (increments - stepped - was.skipped);
  (* Mirror the exact microsecond counters into the exported
     float-second gauges. *)
  Gauge.set t.m.g_virt_des_s
    (float_of_int (Counter.value t.m.m_virt_des_us) /. 1e6);
  Gauge.set t.m.g_virt_fti_s
    (float_of_int (Counter.value t.m.m_virt_fti_us) /. 1e6)

let open_segment t =
  t.seg_virt0 <- t.clock;
  t.seg_wall0 <- Wall.now ();
  t.seg_stepped <- 1;
  t.seg_stepped_end <- Time.add t.clock t.cfg.fti_increment;
  t.seg_published <- no_totals

(* Paced FTI runs virtual time at [fti_pacing]x wall speed: sleep until
   the wall instant the clock is due at, counted from the segment's
   start, so handler cost is absorbed rather than added. *)
let pace t =
  if t.cfg.fti_pacing > 0.0 && t.cur_mode = Fti then begin
    let due =
      t.seg_wall0
      +. (Time.to_sec (Time.sub t.clock t.seg_virt0) /. t.cfg.fti_pacing)
    in
    let ahead = due -. Wall.now () in
    if ahead > 0.0 then Unix.sleepf ahead
  end

let close_segment t =
  pace t;
  publish t;
  open_segment t

let record_transition t to_mode reason =
  close_segment t;
  let wall = if t.running then Wall.now () -. t.run_start_wall else 0.0 in
  t.rev_transitions <-
    { at = t.clock; wall; from_mode = t.cur_mode; to_mode; reason }
    :: t.rev_transitions;
  Counter.incr t.m.m_transitions;
  Gauge.set t.m.g_mode (gauge_of_mode to_mode);
  t.cur_mode <- to_mode

let control_activity ?(reason = "control-plane activity") t =
  t.last_activity <- t.clock;
  match t.cur_mode with
  | Fti -> ()
  | Des -> record_transition t Fti reason

let on_abort t f = t.rev_abort_hooks <- f :: t.rev_abort_hooks
let aborted t = t.abort_flag

let snapshot t =
  publish t;
  Gauge.set t.m.g_end_time_s (Time.to_sec t.clock);
  Gauge.set
    (Registry.gauge t.reg ~subsystem:"sched"
       ~help:"Live events in the scheduler's event queue" "pending_events")
    (float_of_int (Event_queue.size t.queue));
  (match t.causal_g with
  | Some g ->
      let nodes, dropped = t.causal_published in
      Counter.add t.m.m_causal_nodes (Causal.length g - nodes);
      Counter.add t.m.m_causal_dropped (Causal.dropped g - dropped);
      t.causal_published <- (Causal.length g, Causal.dropped g)
  | None -> ());
  {
    events_executed = Counter.value t.m.m_events;
    fti_increments = Counter.value t.m.m_fti_increments;
    fti_increments_skipped = Counter.value t.m.m_fti_skipped;
    poller_ticks = 0;
    transitions = List.rev t.rev_transitions;
    virtual_in_fti = Time.of_us (Counter.value t.m.m_virt_fti_us);
    virtual_in_des = Time.of_us (Counter.value t.m.m_virt_des_us);
    wall_in_fti = Gauge.value t.m.g_wall_fti_s;
    wall_in_des = Gauge.value t.m.g_wall_des_s;
    wall_total = Gauge.value t.m.g_wall_total_s;
    end_time = t.clock;
    aborted = t.abort_flag;
  }

(* The paper's quiet-timeout rule, on the episode's increment grid:
   FTI returns to DES at the first boundary [a + j*inc], [j >= 1], at
   or after [last_activity + quiet_timeout]. [limit] is where the clock
   goes next: an event's time, or with [horizon] the end of the run
   (the maximum time when there is none). An event at or before the
   boundary still runs in FTI and may refresh the timer; a horizon
   between the deadline and the boundary clips the last increment. *)
let quiet_exit t ~limit ~horizon =
  let deadline = Time.add t.last_activity t.cfg.quiet_timeout in
  if Time.(limit > deadline) || (horizon && Time.(limit >= deadline)) then begin
    let boundary =
      Time.add t.seg_virt0
        (Time.mul t.cfg.fti_increment
           (max 1 (cells t (Time.sub deadline t.seg_virt0))))
    in
    if horizon || Time.(limit > boundary) then begin
      t.clock <- Time.max t.clock (Time.min boundary limit);
      record_transition t Des "quiet timeout"
    end
  end

(* Counts the increment holding an FTI event at the clock as stepped. *)
let note_fti_event t =
  if Time.(t.clock > t.seg_stepped_end) then begin
    t.seg_stepped <- t.seg_stepped + 1;
    t.seg_stepped_end <-
      Time.add t.seg_virt0
        (Time.mul t.cfg.fti_increment (cells t (Time.sub t.clock t.seg_virt0)))
  end

(* Wall-clock watchdog: with [max_wall_s > 0], a run that outlives its
   wall budget is aborted after the event in progress — [run] still
   returns normally so callers flush exporters and emit a partial
   report instead of spinning forever. *)
let watchdog_expired t =
  t.cfg.max_wall_s > 0.0
  && Wall.now () -. t.run_start_wall > t.cfg.max_wall_s

let fire_abort t =
  t.abort_flag <- true;
  Counter.incr t.m.m_watchdog_aborts;
  List.iter (fun f -> f ()) (List.rev t.rev_abort_hooks)

(* One loop for both modes: events run at their exact timestamps, and
   FTI only adds the quiet-timeout exit, increment accounting and
   pacing on top. *)
let run ?until t =
  if t.running then invalid_arg "Sched.run: already running";
  t.running <- true;
  t.abort_flag <- false;
  t.run_start_wall <- Wall.now ();
  (* Each run re-anchors an FTI episode's grid at its start. *)
  open_segment t;
  let until_t = Option.value until ~default:(Time.of_us max_int) in
  let rec loop () =
    if watchdog_expired t then fire_abort t
    else
      (* [next] means something only when the queue is not [empty];
         building no option keeps the loop free of allocation. *)
      let empty = Event_queue.is_empty t.queue in
      let next = if empty then until_t else Event_queue.next_time t.queue in
      (* Drain deferred work before the clock can leave the instant
         that registered it. *)
      if (empty || Time.(next > t.clock)) && has_deferred t then begin
        flush_deferred t;
        loop ()
      end
      else
        let horizon = empty || Time.(next > until_t) in
        if t.cur_mode = Fti then
          quiet_exit t ~horizon ~limit:(if horizon then until_t else next);
        if horizon then
          Option.iter (fun u -> t.clock <- Time.max t.clock u) until
        else begin
          let ev = Event_queue.pop t.queue in
          t.clock <- Time.max t.clock next;
          if t.cur_mode = Fti then begin
            note_fti_event t;
            pace t
          end;
          t.cur_cause <- Event_queue.cause ev;
          Counter.incr t.m.m_events;
          Event_queue.action ev ();
          t.cur_cause <- Causal.none;
          loop ()
        end
  in
  loop ();
  (* An abort can leave end-of-instant work pending. *)
  flush_deferred t;
  close_segment t;
  Gauge.add t.m.g_wall_total_s (Wall.now () -. t.run_start_wall);
  t.running <- false;
  snapshot t

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "@[<v>events executed : %d@,\
     fti increments  : %d (%d skipped)@,\
     transitions     : %d@,\
     virtual time    : %a (FTI %a / DES %a)@,\
     wall time       : %.3fs (FTI %.3fs / DES %.3fs)@]"
    s.events_executed s.fti_increments s.fti_increments_skipped
    (List.length s.transitions)
    Time.pp s.end_time Time.pp s.virtual_in_fti Time.pp s.virtual_in_des
    s.wall_total s.wall_in_fti s.wall_in_des

let pp_transition fmt (tr : transition) =
  Format.fprintf fmt "[%a] %a -> %a (%s)" Time.pp tr.at pp_mode tr.from_mode
    pp_mode tr.to_mode tr.reason

let pp_timeline fmt (s : stats) =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_transition fmt
    s.transitions
