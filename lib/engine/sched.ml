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
  h_fti_wall : Horse_telemetry.Histogram.t;
  m_ff_us : Counter.t;
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
      counter ~help:"Fixed-time increments stepped (including fast-forwarded)"
        "fti_increments_total";
    m_fti_skipped =
      counter
        ~help:"FTI increments covered by fast-forward instead of stepping"
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
    h_fti_wall =
      Registry.histogram reg ~subsystem:"sched"
        ~help:"Wall-clock cost of one FTI increment, seconds" ~lo:1e-7 ~hi:1.0
        "fti_increment_wall_seconds";
    m_ff_us =
      counter
        ~help:"Virtual microseconds covered by FTI fast-forward (wall saved \
               in proportion)"
        "fast_forwarded_us_total";
    m_causal_nodes =
      Registry.counter reg ~subsystem:"causal"
        ~help:"Nodes recorded in the causal graph" "nodes_total";
    m_causal_dropped =
      Registry.counter reg ~subsystem:"causal"
        ~help:"Causal nodes dropped at the graph's node cap" "dropped_total";
  }

type t = {
  cfg : config;
  queue : Event_queue.t;
  reg : Registry.t;
  m : metrics;
  mutable clock : Time.t;
  mutable cur_mode : mode;
  mutable last_activity : Time.t;
  mutable running : bool;
  mutable stop_requested : bool;
  mutable rev_transitions : transition list;
  mutable run_start_wall : float;
  mutable abort_flag : bool;
  mutable rev_abort_hooks : (unit -> unit) list;
  deferred : (unit -> unit) Queue.t;
  causal_g : Causal.t option;
  mutable cur_cause : Causal.id;
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
    stop_requested = false;
    rev_transitions = [];
    run_start_wall = Wall.now ();
    abort_flag = false;
    rev_abort_hooks = [];
    deferred = Queue.create ();
    causal_g = (if config.causal then Some (Causal.create ()) else None);
    cur_cause = Causal.none;
  }

let config t = t.cfg
let now t = t.clock
let mode t = t.cur_mode
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

(* One event handle per recurring timer, re-aimed after each firing,
   so a periodic timer never allocates a fresh handle. *)
let every t ?start_after period f =
  if Time.(period <= Time.zero) then
    invalid_arg "Sched.every: period must be positive";
  let first_delay = Option.value start_after ~default:period in
  let r = { cancelled = false; pending = None } in
  let at = ref (Time.add t.clock first_delay) in
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

let record_transition t to_mode reason =
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

let stop t = t.stop_requested <- true
let on_abort t f = t.rev_abort_hooks <- f :: t.rev_abort_hooks
let aborted t = t.abort_flag

let snapshot t =
  Gauge.set t.m.g_end_time_s (Time.to_sec t.clock);
  Gauge.set
    (Registry.gauge t.reg ~subsystem:"sched"
       ~help:"Live events in the scheduler's event queue" "pending_events")
    (float_of_int (Event_queue.size t.queue));
  (match t.causal_g with
  | Some g ->
      let catch_up c v = Counter.add c (v - Counter.value c) in
      catch_up t.m.m_causal_nodes (Causal.length g);
      catch_up t.m.m_causal_dropped (Causal.dropped g)
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

let account t mode0 wall0 clock0 =
  let dw = Wall.now () -. wall0 in
  let dv_us = Time.to_us (Time.sub t.clock clock0) in
  (match mode0 with
  | Des ->
      Gauge.add t.m.g_wall_des_s dw;
      Counter.add t.m.m_virt_des_us dv_us
  | Fti ->
      Gauge.add t.m.g_wall_fti_s dw;
      Counter.add t.m.m_virt_fti_us dv_us);
  (* Mirror the exact microsecond counters into the exported
     float-second gauges. *)
  Gauge.set t.m.g_virt_des_s
    (float_of_int (Counter.value t.m.m_virt_des_us) /. 1e6);
  Gauge.set t.m.g_virt_fti_s
    (float_of_int (Counter.value t.m.m_virt_fti_us) /. 1e6)

(* One DES step: execute the next event (jumping the clock), or jump
   to the horizon when nothing is left before it. Returns [false] when
   the run is over. *)
let des_step t until =
  let wall0 = Wall.now () and clock0 = t.clock in
  let rec exec () =
    let next = Event_queue.next_time t.queue in
    (* Drain deferred work before the clock can leave the instant that
       registered it. *)
    let advancing =
      match next with Some nt -> Time.(nt > t.clock) | None -> true
    in
    if advancing && has_deferred t then begin
      flush_deferred t;
      exec ()
    end
    else
      let beyond_horizon =
        match (next, until) with
        | None, _ -> true
        | Some nt, Some u -> Time.(nt > u)
        | Some _, None -> false
      in
      if beyond_horizon then begin
        (match until with Some u -> t.clock <- Time.max t.clock u | None -> ());
        false
      end
      else
        match Event_queue.pop t.queue with
        | None -> false
        | Some (time, action, cause) ->
            t.clock <- Time.max t.clock time;
            t.cur_cause <- cause;
            Counter.incr t.m.m_events;
            action ();
            t.cur_cause <- Causal.none;
            true
  in
  let continue = exec () in
  account t Des wall0 clock0;
  continue

(* Fast-forward: no process polls, so the increments up to the next
   pending event are pure clock advances — and the quiet-timeout
   boundary caps the skip, so the DES transition fires at exactly the
   boundary that stepping every increment would pick. Skipped
   increments still count in [fti_increments_total] (and the
   virtual-residency counters), so stats and the mode timeline match a
   stepped run; only the loop iterations disappear. Pacing steps every
   increment, since each one is meant to take wall time. *)
let fast_forward t until =
  if t.cfg.fti_pacing <= 0.0 then begin
    let inc = Time.to_us t.cfg.fti_increment in
    let clock = Time.to_us t.clock in
    (* Increments we may skip before reaching [bound]: boundaries
       strictly below it, so the step that lands on (or past) the
       bound runs through the normal loop. *)
    let gap_to bound = if bound > clock then (bound - clock - 1) / inc else 0 in
    let k_ev =
      match Event_queue.next_time t.queue with
      | Some te -> gap_to (Time.to_us te)
      | None -> max_int
    in
    let k_quiet =
      gap_to (Time.to_us (Time.add t.last_activity t.cfg.quiet_timeout))
    in
    let k_until =
      match until with Some u -> gap_to (Time.to_us u) | None -> max_int
    in
    let k = min k_ev (min k_quiet k_until) in
    if k > 0 then begin
      t.clock <- Time.of_us (clock + (k * inc));
      Counter.add t.m.m_fti_increments k;
      Counter.add t.m.m_fti_skipped k;
      Counter.add t.m.m_ff_us (k * inc)
    end
  end

(* One FTI increment: run every event due within the increment,
   advance the clock by exactly one increment (clipped to the horizon),
   fast-forward over a provably idle window, then apply the
   quiet-timeout rule. *)
let fti_step t until =
  let wall0 = Wall.now () and clock0 = t.clock in
  let target =
    let target = Time.add t.clock t.cfg.fti_increment in
    match until with Some u -> Time.min target u | None -> target
  in
  let rec drain () =
    let next = Event_queue.next_time t.queue in
    let advancing =
      match next with Some nt -> Time.(nt > t.clock) | None -> true
    in
    if advancing && has_deferred t then begin
      flush_deferred t;
      drain ()
    end
    else
      match Event_queue.pop_until t.queue target with
      | Some (time, action, cause) ->
          t.clock <- Time.max t.clock time;
          t.cur_cause <- cause;
          Counter.incr t.m.m_events;
          action ();
          t.cur_cause <- Causal.none;
          drain ()
      | None -> ()
  in
  drain ();
  flush_deferred t;
  t.clock <- Time.max t.clock target;
  Counter.incr t.m.m_fti_increments;
  fast_forward t until;
  if t.cfg.fti_pacing > 0.0 then
    Unix.sleepf (Time.to_sec t.cfg.fti_increment /. t.cfg.fti_pacing);
  Horse_telemetry.Histogram.add t.m.h_fti_wall (Wall.now () -. wall0);
  account t Fti wall0 clock0;
  if
    t.cur_mode = Fti
    && Time.(Time.sub t.clock t.last_activity >= t.cfg.quiet_timeout)
  then record_transition t Des "quiet timeout";
  match until with Some u -> Time.(t.clock < u) | None -> true

(* Wall-clock watchdog: with [max_wall_s > 0], a run that outlives its
   wall budget is aborted between steps — [run] still returns normally
   so callers flush exporters and emit a partial report instead of
   spinning forever. *)
let watchdog_expired t =
  t.cfg.max_wall_s > 0.0
  && Wall.now () -. t.run_start_wall > t.cfg.max_wall_s

let fire_abort t =
  t.abort_flag <- true;
  Counter.incr t.m.m_watchdog_aborts;
  List.iter (fun f -> f ()) (List.rev t.rev_abort_hooks)

let run ?until t =
  if t.running then invalid_arg "Sched.run: already running";
  t.running <- true;
  t.stop_requested <- false;
  t.abort_flag <- false;
  t.run_start_wall <- Wall.now ();
  let rec loop () =
    if t.stop_requested then ()
    else if watchdog_expired t then fire_abort t
    else
      let continue =
        match t.cur_mode with
        | Des -> des_step t until
        | Fti -> fti_step t until
      in
      if continue then loop ()
  in
  loop ();
  (* A stop request can leave end-of-instant work pending. *)
  flush_deferred t;
  Gauge.add t.m.g_wall_total_s (Wall.now () -. t.run_start_wall);
  t.running <- false;
  snapshot t

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "@[<v>events executed : %d@,\
     fti increments  : %d (%d fast-forwarded)@,\
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
