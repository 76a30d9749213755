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

module Key_tbl = Flow_key.Table

type t = {
  sched : Sched.t;
  topo : Topology.t;
  m : metrics;
  delta : Fair_share.Delta.t;
  (* Indexed flow state: stopped flows retire out of every scan
     path. *)
  active : (int, Flow.t) Hashtbl.t;  (* flow id -> active flow *)
  by_key : Flow.t Key_tbl.t;  (* newest binding first *)
  link_index : (int, (int, Flow.t) Hashtbl.t) Hashtbl.t;
      (* link id -> active member flows by id *)
  dst_index : (int, (int, Flow.t) Hashtbl.t) Hashtbl.t;
      (* dst node -> active terminating flows by id *)
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
  finite : (int, finite_state) Hashtbl.t;  (* flow id -> finite state *)
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
      Fair_share.Delta.create
        ~capacity:(fun l -> (Topology.link topo l).Topology.capacity)
        ();
    active = Hashtbl.create 256;
    by_key = Key_tbl.create 256;
    link_index = Hashtbl.create 256;
    dst_index = Hashtbl.create 64;
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
    finite = Hashtbl.create 32;
    aggregate = Horse_stats.Series.create ();
    host_series = Hashtbl.create 32;
    sampler = None;
  }


(* --- membership indexes ------------------------------------------- *)

let index_add tbl key (f : Flow.t) =
  let inner =
    match Hashtbl.find_opt tbl key with
    | Some inner -> inner
    | None ->
        let inner = Hashtbl.create 8 in
        Hashtbl.add tbl key inner;
        inner
  in
  Hashtbl.replace inner f.Flow.id f

let index_remove tbl key (f : Flow.t) =
  match Hashtbl.find_opt tbl key with
  | None -> ()
  | Some inner ->
      Hashtbl.remove inner f.Flow.id;
      if Hashtbl.length inner = 0 then Hashtbl.remove tbl key

let enroll t (f : Flow.t) =
  Hashtbl.replace t.active f.Flow.id f;
  Key_tbl.add t.by_key f.Flow.key f;
  List.iter (fun l -> index_add t.link_index l f) (Flow.link_ids f);
  Option.iter (fun dst -> index_add t.dst_index dst f) (Flow.dst_node f)

(* Remove one specific binding of [f.key] while keeping any other
   active flows that share the 5-tuple findable (newest first, as
   before the index existed). *)
let unbind_key t (f : Flow.t) =
  let all = Key_tbl.find_all t.by_key f.Flow.key in
  if List.memq f all then begin
    List.iter (fun _ -> Key_tbl.remove t.by_key f.Flow.key) all;
    List.iter
      (fun g -> Key_tbl.add t.by_key f.Flow.key g)
      (List.rev (List.filter (fun g -> g != f) all))
  end

let retire t (f : Flow.t) =
  Hashtbl.remove t.active f.Flow.id;
  unbind_key t f;
  List.iter (fun l -> index_remove t.link_index l f) (Flow.link_ids f);
  Option.iter (fun dst -> index_remove t.dst_index dst f) (Flow.dst_node f)

(* Integrate a flow's delivered bits up to [now] at its current
   rate. *)
let integrate_flow now (f : Flow.t) =
  if f.Flow.active then begin
    let dt = Time.to_sec (Time.sub now f.Flow.last_integration) in
    if dt > 0.0 then
      f.Flow.delivered_bits <- f.Flow.delivered_bits +. (f.Flow.rate *. dt)
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
  let touched =
    List.filter_map
      (fun fid -> Hashtbl.find_opt t.active fid)
      (Fair_share.Delta.touched d)
  in
  List.iter
    (fun (f : Flow.t) ->
      integrate_flow now f;
      f.Flow.rate <- Fair_share.Delta.rate d ~id:f.Flow.id)
    touched;
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
  List.iter (fun f -> aim_completion t f) touched;
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
  match Hashtbl.find_opt t.finite f.Flow.id with
  | None -> ()
  | Some fin ->
      Option.iter Event_queue.cancel fin.timer;
      fin.timer <- None;
      if f.Flow.active then begin
        let remaining = Float.max 0.0 (fin.size -. f.Flow.delivered_bits) in
        let fire at =
          fin.timer <- Some (Sched.schedule_at t.sched at (fun () -> complete t f))
        in
        if remaining <= 0.0 then fire (Sched.now t.sched)
        else if f.Flow.rate > 0.0 then
          fire
            (Time.add (Sched.now t.sched) (Time.of_sec (remaining /. f.Flow.rate)))
      end

and complete t (f : Flow.t) =
  match Hashtbl.find_opt t.finite f.Flow.id with
  | None -> ()
  | Some fin ->
      Hashtbl.remove t.finite f.Flow.id;
      stop_flow t f;
      fin.on_complete f

and stop_flow t (f : Flow.t) =
  if f.Flow.active then begin
    integrate_flow (Sched.now t.sched) f;
    f.Flow.active <- false;
    f.Flow.rate <- 0.0;
    f.Flow.stopped_at <- Some (Sched.now t.sched);
    t.n_active <- t.n_active - 1;
    t.n_users <- t.n_users - f.Flow.users;
    Counter.incr t.m.m_stopped;
    Gauge.set t.m.g_active (float_of_int t.n_active);
    Gauge.set t.m.g_users (float_of_int t.n_users);
    Fair_share.Delta.remove_flow t.delta ~id:f.Flow.id;
    Histogram.add t.m.h_duration
      (Time.to_sec (Time.sub (Sched.now t.sched) f.Flow.started));
    t.completed_bits <- t.completed_bits +. f.Flow.delivered_bits;
    t.completed_flows <- t.completed_flows + 1;
    (match Hashtbl.find_opt t.finite f.Flow.id with
    | Some fin ->
        Option.iter Event_queue.cancel fin.timer;
        Hashtbl.remove t.finite f.Flow.id
    | None -> ());
    retire t f;
    request_recompute t
  end

(* --- queries -------------------------------------------------------- *)

let active_flows t =
  ensure_fresh t;
  let flows = Hashtbl.fold (fun _ f acc -> f :: acc) t.active [] in
  List.sort (fun (a : Flow.t) (b : Flow.t) -> Int.compare a.Flow.id b.Flow.id) flows

let flow_count t = t.n_active

let find_flow t key = Key_tbl.find_opt t.by_key key

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
      rate = 0.0;
      delivered_bits = 0.0;
      last_integration = now;
      active = true;
      stopped_at = None;
    }
  in
  t.next_id <- t.next_id + 1;
  enroll t f;
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
  Hashtbl.replace t.finite f.Flow.id
    { size = size_bits; on_complete; timer = None };
  (* The rate is not assigned yet; the pending solve aims the
     completion. *)
  f

let set_path t (f : Flow.t) path =
  if not f.Flow.active then invalid_arg "Fluid.set_path: flow is stopped";
  check_path path;
  List.iter (fun l -> index_remove t.link_index l f) (Flow.link_ids f);
  Option.iter (fun dst -> index_remove t.dst_index dst f) (Flow.dst_node f);
  f.Flow.path <- path;
  List.iter (fun l -> index_add t.link_index l f) (Flow.link_ids f);
  Option.iter (fun dst -> index_add t.dst_index dst f) (Flow.dst_node f);
  Fair_share.Delta.set_links t.delta ~id:f.Flow.id ~links:(Flow.link_ids f);
  request_recompute t

let current_rate t (f : Flow.t) =
  ensure_fresh t;
  if f.Flow.active then f.Flow.rate else 0.0

let delivered_bits t (f : Flow.t) =
  ensure_fresh t;
  let now = Sched.now t.sched in
  if f.Flow.active then
    let dt = Time.to_sec (Time.sub now f.Flow.last_integration) in
    f.Flow.delivered_bits +. (f.Flow.rate *. Float.max 0.0 dt)
  else f.Flow.delivered_bits

let flows_on_link t link_id =
  ensure_fresh t;
  match Hashtbl.find_opt t.link_index link_id with
  | None -> []
  | Some members ->
      Hashtbl.fold (fun _ f acc -> f :: acc) members []
      |> List.sort (fun (a : Flow.t) (b : Flow.t) ->
             Int.compare a.Flow.id b.Flow.id)

(* Allocation-free variant for telemetry paths: no list, no sort —
   iteration order is unspecified. *)
let iter_flows_on_link t link_id fn =
  ensure_fresh t;
  match Hashtbl.find_opt t.link_index link_id with
  | None -> ()
  | Some members -> Hashtbl.iter (fun _ f -> fn f) members

let link_load t link_id =
  ensure_fresh t;
  match Hashtbl.find_opt t.link_index link_id with
  | None -> 0.0
  | Some members ->
      Hashtbl.fold (fun _ (f : Flow.t) acc -> acc +. f.Flow.rate) members 0.0

let link_utilization t link_id =
  link_load t link_id /. (Topology.link t.topo link_id).Topology.capacity

let total_rx_rate t =
  ensure_fresh t;
  Hashtbl.fold (fun _ (f : Flow.t) acc -> acc +. f.Flow.rate) t.active 0.0

let host_rx_rate t node_id =
  ensure_fresh t;
  match Hashtbl.find_opt t.dst_index node_id with
  | None -> 0.0
  | Some members ->
      Hashtbl.fold (fun _ (f : Flow.t) acc -> acc +. f.Flow.rate) members 0.0

let sample t =
  ensure_fresh t;
  let now = Sched.now t.sched in
  Horse_stats.Series.add t.aggregate now (total_rx_rate t);
  Hashtbl.iter
    (fun dst _ ->
      if not (Hashtbl.mem t.host_series dst) then
        Hashtbl.add t.host_series dst
          (Horse_stats.Series.create ()))
    t.dst_index;
  Hashtbl.iter
    (fun dst series -> Horse_stats.Series.add series now (host_rx_rate t dst))
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
  Hashtbl.fold
    (fun _ (f : Flow.t) acc -> acc +. delivered_bits t f)
    t.active t.completed_bits
