open Horse_net
open Horse_engine
open Horse_topo
module Registry = Horse_telemetry.Registry
module Counter = Registry.Counter
module Gauge = Registry.Gauge
module Histogram = Horse_telemetry.Histogram

type metrics = {
  m_started : Counter.t;
  m_stopped : Counter.t;
  m_recomputes : Counter.t;
  m_recompute_requests : Counter.t;
  g_active : Gauge.t;
  g_users : Gauge.t;
  h_duration : Histogram.t;
  h_recompute_wall : Histogram.t;
  h_recompute_flows : Histogram.t;
  m_delta_flows_touched : Counter.t;
  m_delta_links_touched : Counter.t;
  m_delta_expansions : Counter.t;
  m_delta_promotions : Counter.t;
}

let make_metrics reg =
  {
    m_started =
      Registry.counter reg ~subsystem:"fluid" ~help:"Fluid flows started"
        "flows_started_total";
    m_stopped =
      Registry.counter reg ~subsystem:"fluid"
        ~help:"Fluid flows stopped or completed" "flows_stopped_total";
    m_recomputes =
      Registry.counter reg ~subsystem:"fluid"
        ~help:"Max-min fair-share reallocations executed" "recomputes_total";
    m_recompute_requests =
      Registry.counter reg ~subsystem:"fluid"
        ~help:
          "Fair-share recompute requests before coalescing (one per flow \
           start/stop/reroute)"
        "recompute_requests_total";
    g_active =
      Registry.gauge reg ~subsystem:"fluid" ~help:"Currently active fluid flows"
        "active_flows";
    h_duration =
      Registry.histogram reg ~subsystem:"fluid"
        ~help:"Virtual lifetime of stopped flows, seconds" ~lo:1e-4 ~hi:1e3
        "flow_duration_seconds";
    h_recompute_wall =
      Registry.histogram reg ~subsystem:"fluid"
        ~help:"Wall-clock cost of one fair-share recompute, seconds" ~lo:1e-7
        ~hi:1.0 "recompute_wall_seconds";
    h_recompute_flows =
      Registry.histogram reg ~subsystem:"fluid"
        ~help:"Flows touched by one fair-share recompute" ~lo:1.0 ~hi:1e6
        "recompute_flows";
    g_users =
      Registry.gauge reg ~subsystem:"fluid"
        ~help:"Users represented by the active flow classes" "active_users";
    m_delta_flows_touched =
      Registry.counter reg ~subsystem:"fluid"
        ~help:
          "Flows entering a delta-scoped water fill (the incremental \
           solver's work metric)"
        "delta_flows_touched_total";
    m_delta_links_touched =
      Registry.counter reg ~subsystem:"fluid"
        ~help:"Links entering a delta-scoped water fill"
        "delta_links_touched_total";
    m_delta_expansions =
      Registry.counter reg ~subsystem:"fluid"
        ~help:"Delta-solve fixpoint iterations beyond the first"
        "delta_expansions_total";
    m_delta_promotions =
      Registry.counter reg ~subsystem:"fluid"
        ~help:"Clamped flows promoted into a delta-solve scope"
        "delta_promotions_total";
  }

type finite_state = {
  size : float;
  on_complete : Flow.t -> unit;
  mutable timer : Event_queue.handle option;
}

(* Placeholders for empty slots of the id-indexed store; never
   mutated. *)
let gone =
  {
    Flow.id = -1;
    key = Flow_key.make ~src:Ipv4.any ~dst:Ipv4.any ();
    demand = 0.0;
    users = 0;
    started = Time.zero;
    path = [];
    dst = -1;
    meter = { Flow.rate = 0.0; delivered_bits = 0.0 };
    last_integration = Time.zero;
    active = false;
    stopped_at = None;
  }

let open_ended =
  { size = infinity; on_complete = ignore; timer = None }

type t = {
  sched : Sched.t;
  topo : Topology.t;
  m : metrics;
  delta : Fair_share.Delta.t;
  (* The flow store, indexed by the dense flow id: a stopped flow's
     slots hold the placeholders, so only active flows stay
     reachable. Link membership lives in [delta]. *)
  mutable flows : Flow.t array;  (* id -> active flow, or [gone] *)
  mutable finite : finite_state array;  (* id -> state, or [open_ended] *)
  mutable n_active : int;
  mutable n_users : int;
  mutable next_id : int;
  mutable recomputes : int;
  mutable recompute_requests : int;
  mutable solve_work : int;  (* flows entering a solve, summed *)
  (* Completed accumulators. *)
  mutable completed_bits : float;
  mutable completed_flows : int;
  (* Coalescing state: mutations mark the engine dirty (the delta
     engine keeps its own event log); the solve drains at the end of
     the current scheduler instant (Sched.defer) or on the first rate
     read. *)
  mutable dirty : bool;
  mutable flush_hooked : bool;
  aggregate : Horse_stats.Series.t;
  host_series : (int, Horse_stats.Series.t) Hashtbl.t;
  mutable sampler : Sched.recurring option;
}

let create sched topo =
  {
    sched;
    topo;
    m = make_metrics (Sched.registry sched);
    delta =
      Fair_share.Delta.create ~links:(Topology.n_links topo)
        ~capacity:(fun l -> (Topology.link topo l).Topology.capacity)
        ();
    flows = Array.make 256 gone;
    finite = Array.make 256 open_ended;
    n_active = 0;
    n_users = 0;
    next_id = 0;
    recomputes = 0;
    recompute_requests = 0;
    solve_work = 0;
    completed_bits = 0.0;
    completed_flows = 0;
    dirty = false;
    flush_hooked = false;
    aggregate = Horse_stats.Series.create ();
    host_series = Hashtbl.create 32;
    sampler = None;
  }

(* [a] with room for index [i], keeping its contents. It grows by
   half: the store holds a word per flow ever started. *)
let grow a i fill =
  let len = Array.length a in
  if i < len then a
  else begin
    let b = Array.make (max (i + 1) (len + (len / 2))) fill in
    Array.blit a 0 b 0 len;
    b
  end

(* Every active flow, by ascending id. *)
let iter_active t f =
  let flows = t.flows in
  for id = 0 to t.next_id - 1 do
    let fl = flows.(id) in
    if fl != gone then f fl
  done

(* The node a path ends at, or -1 for an empty path. *)
let rec last_dst = function
  | [] -> -1
  | [ (l : Topology.link) ] -> l.Topology.dst
  | _ :: rest -> last_dst rest

(* Integrate a flow's delivered bits up to [now] at its current
   rate. *)
let integrate_flow now (f : Flow.t) =
  if f.Flow.active then begin
    let dt = Time.to_sec (Time.sub now f.Flow.last_integration) in
    let m = f.Flow.meter in
    if dt > 0.0 then
      m.Flow.delivered_bits <- m.Flow.delivered_bits +. (m.Flow.rate *. dt)
  end;
  f.Flow.last_integration <- Time.max f.Flow.last_integration now

(* --- solve ------------------------------------------------------------ *)

(* A solve drains the delta engine's event log (persistent bottleneck
   state, event-scoped water fill) and copies the new rates of the
   flows it touched. *)
let rec solve t =
  let d = t.delta in
  let wall0 = Wall.now () in
  let now = Sched.now t.sched in
  t.dirty <- false;
  let before = Fair_share.Delta.stats d in
  Fair_share.Delta.flush d;
  let after = Fair_share.Delta.stats d in
  Fair_share.Delta.iter_touched d (fun id rate ->
      let f = t.flows.(id) in
      if f != gone then begin
        integrate_flow now f;
        f.Flow.meter.Flow.rate <- rate;
        aim_completion t f
      end);
  let work = after.Fair_share.Delta.flows_touched - before.Fair_share.Delta.flows_touched in
  t.solve_work <- t.solve_work + work;
  t.recomputes <- t.recomputes + 1;
  Counter.incr t.m.m_recomputes;
  Counter.add t.m.m_delta_flows_touched work;
  Counter.add t.m.m_delta_links_touched
    (after.Fair_share.Delta.links_touched - before.Fair_share.Delta.links_touched);
  Counter.add t.m.m_delta_expansions
    (after.Fair_share.Delta.expansions - before.Fair_share.Delta.expansions);
  Counter.add t.m.m_delta_promotions
    (after.Fair_share.Delta.promotions - before.Fair_share.Delta.promotions);
  Histogram.add t.m.h_recompute_flows (float_of_int work);
  Histogram.add t.m.h_recompute_wall (Wall.now () -. wall0)

(* Request a recompute: the request is folded into one solve that
   drains at the end of the current scheduler instant, before virtual
   time can advance. *)
and request_recompute t =
  t.recompute_requests <- t.recompute_requests + 1;
  Counter.incr t.m.m_recompute_requests;
  t.dirty <- true;
  if not t.flush_hooked then begin
    t.flush_hooked <- true;
    Sched.defer t.sched (fun () ->
        t.flush_hooked <- false;
        if t.dirty then solve t)
  end

(* Rate readers flush pending work first so coalescing is invisible to
   observers: within the mutating instant, reads see post-solve
   rates. *)
and ensure_fresh t = if t.dirty then solve t

and aim_completion t (f : Flow.t) =
  let fin = t.finite.(f.Flow.id) in
  if fin != open_ended then begin
    Option.iter Event_queue.cancel fin.timer;
    fin.timer <- None;
    if f.Flow.active then begin
      let m = f.Flow.meter in
      let remaining = Float.max 0.0 (fin.size -. m.Flow.delivered_bits) in
      let fire at =
        fin.timer <- Some (Sched.schedule_at t.sched at (fun () -> complete t f))
      in
      if remaining <= 0.0 then fire (Sched.now t.sched)
      else if m.Flow.rate > 0.0 then
        fire
          (Time.add (Sched.now t.sched) (Time.of_sec (remaining /. m.Flow.rate)))
    end
  end

and complete t (f : Flow.t) =
  let fin = t.finite.(f.Flow.id) in
  if fin != open_ended then begin
    t.finite.(f.Flow.id) <- open_ended;
    stop_flow t f;
    fin.on_complete f
  end

and stop_flow t (f : Flow.t) =
  if f.Flow.active then begin
    integrate_flow (Sched.now t.sched) f;
    f.Flow.active <- false;
    f.Flow.meter.Flow.rate <- 0.0;
    f.Flow.stopped_at <- Some (Sched.now t.sched);
    t.n_active <- t.n_active - 1;
    t.n_users <- t.n_users - f.Flow.users;
    Counter.incr t.m.m_stopped;
    Gauge.set t.m.g_active (float_of_int t.n_active);
    Gauge.set t.m.g_users (float_of_int t.n_users);
    Fair_share.Delta.remove_flow t.delta ~id:f.Flow.id;
    Histogram.add t.m.h_duration
      (Time.to_sec (Time.sub (Sched.now t.sched) f.Flow.started));
    t.completed_bits <- t.completed_bits +. f.Flow.meter.Flow.delivered_bits;
    t.completed_flows <- t.completed_flows + 1;
    let fin = t.finite.(f.Flow.id) in
    if fin != open_ended then begin
      Option.iter Event_queue.cancel fin.timer;
      t.finite.(f.Flow.id) <- open_ended
    end;
    t.flows.(f.Flow.id) <- gone;
    request_recompute t
  end

(* --- queries -------------------------------------------------------- *)

let active_flows t =
  let acc = ref [] in
  for id = t.next_id - 1 downto 0 do
    let f = t.flows.(id) in
    if f != gone then acc := f :: !acc
  done;
  !acc

let flow_count t = t.n_active

let check_path path =
  let rec contiguous = function
    | [] | [ _ ] -> true
    | (a : Topology.link) :: (b :: _ as rest) ->
        a.Topology.dst = b.Topology.src && contiguous rest
  in
  if not (contiguous path) then
    invalid_arg "Fluid: discontiguous path"

let start_flow ?(demand = 1e9) ?(users = 1) t ~key ~path =
  if demand <= 0.0 then invalid_arg "Fluid.start_flow: demand <= 0";
  if users < 1 then invalid_arg "Fluid.start_flow: users < 1";
  check_path path;
  let now = Sched.now t.sched in
  let f =
    {
      Flow.id = t.next_id;
      key;
      demand;
      users;
      started = now;
      path;
      dst = last_dst path;
      meter = { Flow.rate = 0.0; delivered_bits = 0.0 };
      last_integration = now;
      active = true;
      stopped_at = None;
    }
  in
  t.flows <- grow t.flows f.Flow.id gone;
  t.finite <- grow t.finite f.Flow.id open_ended;
  t.flows.(f.Flow.id) <- f;
  t.next_id <- t.next_id + 1;
  t.n_active <- t.n_active + 1;
  t.n_users <- t.n_users + users;
  Counter.incr t.m.m_started;
  Gauge.set t.m.g_active (float_of_int t.n_active);
  Gauge.set t.m.g_users (float_of_int t.n_users);
  Fair_share.Delta.add_flow t.delta ~id:f.Flow.id ~demand
    ~links:(Flow.link_ids f);
  request_recompute t;
  f

let start_finite_flow ?demand t ~key ~path ~size_bits ~on_complete =
  if size_bits <= 0.0 then
    invalid_arg "Fluid.start_finite_flow: size <= 0";
  let f = start_flow ?demand t ~key ~path in
  t.finite.(f.Flow.id) <- { size = size_bits; on_complete; timer = None };
  (* The rate is not assigned yet; the pending solve aims the
     completion. *)
  f

let set_path t (f : Flow.t) path =
  if not f.Flow.active then invalid_arg "Fluid.set_path: flow is stopped";
  check_path path;
  f.Flow.path <- path;
  f.Flow.dst <- last_dst path;
  Fair_share.Delta.set_links t.delta ~id:f.Flow.id ~links:(Flow.link_ids f);
  request_recompute t

let current_rate t (f : Flow.t) =
  ensure_fresh t;
  if f.Flow.active then f.Flow.meter.Flow.rate else 0.0

let delivered_bits t (f : Flow.t) =
  ensure_fresh t;
  let now = Sched.now t.sched in
  let m = f.Flow.meter in
  if f.Flow.active then
    let dt = Time.to_sec (Time.sub now f.Flow.last_integration) in
    m.Flow.delivered_bits +. (m.Flow.rate *. Float.max 0.0 dt)
  else m.Flow.delivered_bits

let flows_on_link t link_id =
  ensure_fresh t;
  List.rev
    (Fair_share.Delta.fold_link t.delta ~link:link_id
       (fun id _ acc -> t.flows.(id) :: acc)
       [])

let link_load t link_id =
  ensure_fresh t;
  Fair_share.Delta.fold_link t.delta ~link:link_id
    (fun _ rate acc -> acc +. rate)
    0.0

let link_utilization t link_id =
  link_load t link_id /. (Topology.link t.topo link_id).Topology.capacity

let total_rx_rate t =
  ensure_fresh t;
  let sum = ref 0.0 in
  iter_active t (fun f -> sum := !sum +. f.Flow.meter.Flow.rate);
  !sum

let host_rx_rate t node_id =
  ensure_fresh t;
  let sum = ref 0.0 in
  iter_active t (fun f ->
      if f.Flow.dst = node_id then sum := !sum +. f.Flow.meter.Flow.rate);
  !sum

(* One pass over the active flows sums the aggregate and every node's
   rate. A node gains a host series once a flow terminating there is
   active at a sample. *)
let sample t =
  ensure_fresh t;
  let now = Sched.now t.sched in
  let n = Topology.n_nodes t.topo in
  let node_rx = Array.make n 0.0 and node_flows = Array.make n 0 in
  let total = ref 0.0 in
  iter_active t (fun f ->
      let rate = f.Flow.meter.Flow.rate in
      total := !total +. rate;
      let dst = f.Flow.dst in
      if dst >= 0 then begin
        node_rx.(dst) <- node_rx.(dst) +. rate;
        node_flows.(dst) <- node_flows.(dst) + 1
      end);
  Horse_stats.Series.add t.aggregate now !total;
  for dst = 0 to n - 1 do
    if node_flows.(dst) > 0 && not (Hashtbl.mem t.host_series dst) then
      Hashtbl.add t.host_series dst (Horse_stats.Series.create ())
  done;
  Hashtbl.iter
    (fun dst series -> Horse_stats.Series.add series now node_rx.(dst))
    t.host_series

let start_sampling t ~every =
  Option.iter Sched.cancel_recurring t.sampler;
  sample t;
  t.sampler <- Some (Sched.every t.sched every (fun () -> sample t))

let aggregate_series t = t.aggregate
let host_series t node_id = Hashtbl.find_opt t.host_series node_id
let recompute_count t = t.recomputes
let recompute_requests t = t.recompute_requests
let completed_flow_count t = t.completed_flows
let active_users t = t.n_users
let solve_work t = t.solve_work

let delta_stats t = Some (Fair_share.Delta.stats t.delta)

let total_delivered_bits t =
  ensure_fresh t;
  let sum = ref t.completed_bits in
  iter_active t (fun f -> sum := !sum +. delivered_bits t f);
  !sum
