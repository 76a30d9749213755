open Horse_net
open Horse_engine
open Horse_emulation

type config = {
  router_id : Ipv4.t;
  hello_interval : Time.t;
  dead_interval : Time.t;
  stub_prefixes : (Prefix.t * int) list;
  spf_delay : Time.t;
  processing_delay : Time.t;
}

let default_config ~router_id =
  {
    router_id;
    hello_interval = Time.of_sec 2.0;
    dead_interval = Time.of_sec 8.0;
    stub_prefixes = [];
    spf_delay = Time.of_ms 10;
    processing_delay = Time.of_us 50;
  }

type neighbor_state = Down | Init | Full

let pp_neighbor_state fmt s =
  Format.pp_print_string fmt
    (match s with Down -> "Down" | Init -> "Init" | Full -> "Full")

(* Causal kinds. An adjacency change's payload comes from [pack_adj];
   an LSU's is [Causal.pair lsa_count iface_id]. *)
let state_code = function Down -> 0 | Init -> 1 | Full -> 2

let state_of_code = function
  | 0 -> Down
  | 1 -> Init
  | 2 -> Full
  | c -> invalid_arg (Printf.sprintf "Daemon.state_of_code: %d" c)

let pack_adj ~iface state = Causal.pair iface (state_code state)

let spf_kind = Causal.kind "ospf:spf" (Printf.sprintf "%d routes")

let adj_kind =
  Causal.kind "ospf:adj" (fun a ->
      Format.asprintf "iface %d -> %a" (Causal.pair_hi a) pp_neighbor_state
        (state_of_code (Causal.pair_lo a)))

let lsa_kind =
  Causal.kind "ospf:lsa" (fun a ->
      Printf.sprintf "%d LSAs via iface %d" (Causal.pair_hi a)
        (Causal.pair_lo a))

type iface = {
  iface_id : int;
  mutable endpoint : Channel.endpoint;
  mutable nbr_id : Ipv4.t option;
  mutable nbr_state : neighbor_state;
  mutable last_hello : Time.t;
  mutable dead_ev : Event_queue.handle option;
      (* per-interface dead-interval deadline, re-aimed on every hello *)
}

type counters = {
  hellos_sent : int;
  hellos_received : int;
  updates_sent : int;
  updates_received : int;
  acks_sent : int;
  spf_runs : int;
  lsa_originations : int;
}

(* Every point-to-point interface costs 1: SPF counts hops. *)
let interface_metric = 1

module Registry = Horse_telemetry.Registry
module Counter = Registry.Counter
module Gauge = Registry.Gauge

(* Shared registry handles: aggregates across every daemon on the
   same scheduler, labeled by direction and message type. *)
type metrics = {
  tx_hello : Counter.t;
  tx_update : Counter.t;
  tx_ack : Counter.t;
  rx_hello : Counter.t;
  rx_update : Counter.t;
  m_spf : Counter.t;
  m_originations : Counter.t;
  g_full : Gauge.t;
}

let make_metrics reg =
  let msg dir ty =
    Registry.counter reg ~subsystem:"ospf"
      ~help:"OSPF messages by direction and type"
      ~labels:[ ("dir", dir); ("type", ty) ]
      "messages_total"
  in
  {
    tx_hello = msg "tx" "hello";
    tx_update = msg "tx" "ls_update";
    tx_ack = msg "tx" "ls_ack";
    rx_hello = msg "rx" "hello";
    rx_update = msg "rx" "ls_update";
    m_spf =
      Registry.counter reg ~subsystem:"ospf" ~help:"SPF recomputations"
        "spf_runs_total";
    m_originations =
      Registry.counter reg ~subsystem:"ospf" ~help:"Router-LSA originations"
        "lsa_originations_total";
    g_full =
      Registry.gauge reg ~subsystem:"ospf"
        ~help:"Adjacencies currently in state Full" "full_adjacencies";
  }

type t = {
  proc : Process.t;
  cfg : config;
  db : Lsdb.t;
  trace : Trace.t option;
  m : metrics;
  mutable ifaces : iface list;  (* reversed *)
  mutable next_iface : int;
  mutable seq : int;
  mutable started : bool;
  mutable spf_pending : bool;
  mutable route_cache : Lsdb.route list;
  mutable route_hooks : (Lsdb.route list -> unit) list;
  mutable hellos_sent : int;
  mutable hellos_received : int;
  mutable updates_sent : int;
  mutable updates_received : int;
  mutable acks_sent : int;
  mutable spf_runs : int;
  mutable lsa_originations : int;
}

let now t = Sched.now (Process.scheduler t.proc)

let tracef t fmt =
  match t.trace with
  | Some trace -> Trace.addf trace ~at:(now t) ~label:"ospf" fmt
  | None -> Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let lsdb t = t.db
let iface_list t = List.rev t.ifaces

let find_iface t id =
  match List.find_opt (fun i -> i.iface_id = id) t.ifaces with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Ospf.Daemon: unknown interface %d" id)

let neighbor_state t id = (find_iface t id).nbr_state

let full_neighbors t =
  List.length (List.filter (fun i -> i.nbr_state = Full) t.ifaces)

let interface_of_neighbor t rid =
  List.find_map
    (fun i ->
      match i.nbr_id with
      | Some r when Ipv4.equal r rid && i.nbr_state = Full -> Some i.iface_id
      | Some _ | None -> None)
    t.ifaces

let routes t = t.route_cache
let on_routes_change t f = t.route_hooks <- t.route_hooks @ [ f ]

let counters t =
  {
    hellos_sent = t.hellos_sent;
    hellos_received = t.hellos_received;
    updates_sent = t.updates_sent;
    updates_received = t.updates_received;
    acks_sent = t.acks_sent;
    spf_runs = t.spf_runs;
    lsa_originations = t.lsa_originations;
  }

(* --- sending --------------------------------------------------------- *)

let send t iface msg =
  (match msg with
  | Ospf_msg.Hello _ ->
      t.hellos_sent <- t.hellos_sent + 1;
      Counter.incr t.m.tx_hello
  | Ospf_msg.Ls_update _ ->
      t.updates_sent <- t.updates_sent + 1;
      Counter.incr t.m.tx_update
  | Ospf_msg.Ls_ack _ ->
      t.acks_sent <- t.acks_sent + 1;
      Counter.incr t.m.tx_ack);
  Channel.send iface.endpoint (Ospf_msg.encode ~router_id:t.cfg.router_id msg)

let send_hello t iface =
  send t iface
    (Ospf_msg.Hello
       {
         hello_interval_s = int_of_float (Time.to_sec t.cfg.hello_interval);
         dead_interval_s = int_of_float (Time.to_sec t.cfg.dead_interval);
         neighbors = Option.to_list iface.nbr_id;
       })

let flood t ?except lsas =
  List.iter
    (fun iface ->
      if iface.nbr_state = Full && Some iface.iface_id <> except then
        send t iface (Ospf_msg.Ls_update lsas))
    t.ifaces

(* --- SPF scheduling --------------------------------------------------- *)

let routes_equal a b =
  List.equal
    (fun (x : Lsdb.route) y ->
      Prefix.equal x.Lsdb.prefix y.Lsdb.prefix
      && x.Lsdb.cost = y.Lsdb.cost
      && List.equal Ipv4.equal x.Lsdb.next_hops y.Lsdb.next_hops)
    a b

let run_spf t =
  t.spf_pending <- false;
  t.spf_runs <- t.spf_runs + 1;
  Counter.incr t.m.m_spf;
  let fresh = Lsdb.routes t.db ~self:t.cfg.router_id in
  if not (routes_equal fresh t.route_cache) then begin
    t.route_cache <- fresh;
    tracef t "routing table changed: %d routes" (List.length fresh);
    Sched.protect_cause (Process.scheduler t.proc) (fun () ->
        ignore
          (Sched.cause_point (Process.scheduler t.proc) spf_kind
             (List.length fresh));
        List.iter (fun f -> f fresh) t.route_hooks)
  end

let schedule_spf t =
  if not t.spf_pending then begin
    t.spf_pending <- true;
    Process.after t.proc t.cfg.spf_delay (fun () -> run_spf t)
  end

(* --- LSA origination --------------------------------------------------- *)

let originate t =
  t.seq <- t.seq + 1;
  t.lsa_originations <- t.lsa_originations + 1;
  Counter.incr t.m.m_originations;
  let p2p =
    List.filter_map
      (fun iface ->
        match (iface.nbr_state, iface.nbr_id) with
        | Full, Some neighbor ->
            Some (Ospf_msg.Point_to_point { neighbor; metric = interface_metric })
        | (Full | Init | Down), _ -> None)
      (iface_list t)
  in
  let stubs =
    List.map
      (fun (prefix, metric) -> Ospf_msg.Stub { prefix; metric })
      t.cfg.stub_prefixes
  in
  let lsa =
    { Ospf_msg.adv_router = t.cfg.router_id; seq = t.seq; links = p2p @ stubs }
  in
  ignore (Lsdb.install t.db lsa);
  flood t [ lsa ];
  schedule_spf t

(* --- receiving ---------------------------------------------------------- *)

let set_neighbor_state t iface state =
  if iface.nbr_state <> state then begin
    ignore
      (Sched.cause_point (Process.scheduler t.proc) adj_kind
         (pack_adj ~iface:iface.iface_id state));
    tracef t "interface %d neighbor %s -> %a" iface.iface_id
      (match iface.nbr_id with Some r -> Ipv4.to_string r | None -> "?")
      pp_neighbor_state state;
    if iface.nbr_state = Full then Gauge.add t.m.g_full (-1.0)
    else if state = Full then Gauge.add t.m.g_full 1.0;
    iface.nbr_state <- state
  end

(* Neighbour liveness: one deadline event per interface at
   [last_hello + dead_interval], re-aimed in place by every hello —
   replaces the shared sweep that used to piggyback on the hello
   timer, so a healthy adjacency costs no polling between hellos. *)
let rec arm_dead t iface =
  let deadline = Time.add iface.last_hello t.cfg.dead_interval in
  let sched = Process.scheduler t.proc in
  match iface.dead_ev with
  | Some h -> Sched.reschedule sched h deadline
  | None ->
      iface.dead_ev <-
        Some (Sched.schedule_at sched deadline (fun () -> dead_expired t iface))

and dead_expired t iface =
  if Process.is_alive t.proc && iface.nbr_state <> Down then
    if Time.(Time.sub (now t) iface.last_hello >= t.cfg.dead_interval) then begin
      let was_full = iface.nbr_state = Full in
      set_neighbor_state t iface Down;
      if was_full then originate t
    end
    else
      (* A hello raced the deadline without re-aiming it (defensive;
         handle_hello re-arms): aim at the true deadline. *)
      arm_dead t iface

let handle_hello t iface sender (h : Ospf_msg.hello) =
  t.hellos_received <- t.hellos_received + 1;
  Counter.incr t.m.rx_hello;
  iface.last_hello <- now t;
  arm_dead t iface;
  iface.nbr_id <- Some sender;
  let sees_us = List.exists (Ipv4.equal t.cfg.router_id) h.Ospf_msg.neighbors in
  match (iface.nbr_state, sees_us) with
  | Full, true -> ()
  | (Down | Init), true ->
      set_neighbor_state t iface Full;
      (* Adjacency up: re-originate (the new link) and synchronise the
         new neighbour with our whole database. *)
      originate t;
      let db = Lsdb.lsas t.db in
      if db <> [] then send t iface (Ospf_msg.Ls_update db)
  | (Down | Init | Full), false -> set_neighbor_state t iface Init

let handle_update t iface lsas =
  t.updates_received <- t.updates_received + 1;
  Counter.incr t.m.rx_update;
  ignore
    (Sched.cause_point (Process.scheduler t.proc) lsa_kind
       (Causal.pair (List.length lsas) iface.iface_id));
  let to_ack = ref [] in
  List.iter
    (fun (lsa : Ospf_msg.lsa) ->
      (* Never accept somebody else's version of our own LSA. *)
      if not (Ipv4.equal lsa.Ospf_msg.adv_router t.cfg.router_id) then begin
        match Lsdb.install t.db lsa with
        | Lsdb.Newer ->
            to_ack := (lsa.Ospf_msg.adv_router, lsa.Ospf_msg.seq) :: !to_ack;
            flood t ~except:iface.iface_id [ lsa ];
            schedule_spf t
        | Lsdb.Duplicate ->
            to_ack := (lsa.Ospf_msg.adv_router, lsa.Ospf_msg.seq) :: !to_ack
        | Lsdb.Older -> ()
      end)
    lsas;
  if !to_ack <> [] then send t iface (Ospf_msg.Ls_ack (List.rev !to_ack))

let handle t iface sender msg =
  match (msg : Ospf_msg.t) with
  | Ospf_msg.Hello h -> handle_hello t iface sender h
  | Ospf_msg.Ls_update lsas -> handle_update t iface lsas
  | Ospf_msg.Ls_ack _ -> () (* channels are reliable; no retransmit state *)

let receive t iface bytes =
  if Process.is_alive t.proc then
    let process () =
      match Ospf_msg.decode bytes with
      | Ok (sender, msg) -> handle t iface sender msg
      | Error err -> tracef t "decode error: %s" err
    in
    if Time.equal t.cfg.processing_delay Time.zero then process ()
    else Process.after t.proc t.cfg.processing_delay process

(* --- lifecycle ------------------------------------------------------------ *)

let create ?trace proc cfg =
  {
    proc;
    cfg;
    db = Lsdb.create ();
    trace;
    m = make_metrics (Sched.registry (Process.scheduler proc));
    ifaces = [];
    next_iface = 0;
    seq = 0;
    started = false;
    spf_pending = false;
    route_cache = [];
    route_hooks = [];
    hellos_sent = 0;
    hellos_received = 0;
    updates_sent = 0;
    updates_received = 0;
    acks_sent = 0;
    spf_runs = 0;
    lsa_originations = 0;
  }

let bind_iface t iface endpoint =
  iface.endpoint <- endpoint;
  Channel.set_receiver endpoint (fun bytes -> receive t iface bytes);
  Channel.set_on_close endpoint (fun () ->
      if Process.is_alive t.proc && iface.nbr_state <> Down then begin
        let was_full = iface.nbr_state = Full in
        set_neighbor_state t iface Down;
        if was_full then originate t
      end)

let add_interface t endpoint =
  let iface =
    {
      iface_id = t.next_iface;
      endpoint;
      nbr_id = None;
      nbr_state = Down;
      last_hello = Time.zero;
      dead_ev = None;
    }
  in
  t.next_iface <- t.next_iface + 1;
  t.ifaces <- iface :: t.ifaces;
  bind_iface t iface endpoint;
  iface.iface_id

let rebind_interface t iface_id endpoint =
  let iface = find_iface t iface_id in
  bind_iface t iface endpoint;
  (* The adjacency re-forms through hellos; reset the liveness clock
     so the dead deadline measures from the repair, not from before
     the failure. *)
  iface.last_hello <- now t;
  if t.started && Process.is_alive t.proc then send_hello t iface

let arm_timers t =
  ignore
    (Process.every t.proc t.cfg.hello_interval (fun () ->
         List.iter (fun iface -> send_hello t iface) (iface_list t)))

(* A crash loses all protocol state: adjacencies drop silently (the
   neighbours' dead-interval timers notice), pending SPF work is
   forgotten and the routing table empties so installed routes are
   withdrawn from the data plane. The LSDB survives as scratch state
   — a restarted daemon re-originates with a higher sequence number
   and neighbours resynchronise it anyway. *)
let crash_cleanup t =
  t.spf_pending <- false;
  List.iter
    (fun iface ->
      iface.nbr_id <- None;
      Option.iter Sched.cancel iface.dead_ev;
      if iface.nbr_state <> Down then set_neighbor_state t iface Down)
    t.ifaces;
  if t.route_cache <> [] then begin
    t.route_cache <- [];
    List.iter (fun f -> f []) t.route_hooks
  end

let revive t =
  if t.started then begin
    tracef t "daemon %a restarted" Ipv4.pp t.cfg.router_id;
    originate t;
    List.iter (fun iface -> send_hello t iface) (iface_list t);
    arm_timers t
  end

let start t =
  if not t.started then begin
    t.started <- true;
    Process.on_kill t.proc (fun () -> crash_cleanup t);
    Process.on_restart t.proc (fun () -> revive t);
    originate t (* stub-only LSA until adjacencies form *);
    List.iter (fun iface -> send_hello t iface) (iface_list t);
    arm_timers t;
    tracef t "daemon %a started with %d interfaces" Ipv4.pp t.cfg.router_id
      (List.length t.ifaces)
  end
