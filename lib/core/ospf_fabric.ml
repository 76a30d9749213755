open Horse_net
open Horse_engine
open Horse_topo
open Horse_dataplane
open Horse_emulation
open Horse_ospf

type session = {
  node_a : int;
  node_b : int;
  iface_at_a : int;
  iface_at_b : int;
  mutable channel : Channel.t;
  session_name : string;
}

type t = {
  fabric_topo : Topology.t;
  sched : Sched.t;
  cm : Connection_manager.t;
  daemons : (int, Daemon.t) Hashtbl.t;  (* node id -> daemon *)
  processes : (int, Process.t) Hashtbl.t;
  tables : Fwd.t array;
  iface_links : (int, (int, int) Hashtbl.t) Hashtbl.t;
      (* node -> iface id -> out-link id *)
  ospf_installed : (int, Prefix.t list ref) Hashtbl.t;  (* per node *)
  fib_kind : Causal.kind;
  originated : (int, Prefix.t list) Hashtbl.t;
  mutable prefixes : Prefix.t list;
  mutable sessions : session list;
  mutable converged_fired : bool;
  mutable converged_hooks : (unit -> unit) list;  (* reversed *)
  mutable checker_armed : bool;
}

let synth_router_id id = Ipv4.of_octets 10 254 (id / 250) ((id mod 250) + 1)

let is_daemon_node (n : Topology.node) =
  match n.Topology.kind with
  | Topology.Switch | Topology.Router -> true
  | Topology.Host -> false

(* A routing-table install's payload: [Causal.pair node route_count].
   Its printer names the node through the topology, so the kind is
   registered on the run's graph, not program-wide. *)
let fib_write_detail topo a =
  Printf.sprintf "%s (%d routes)"
    (Topology.node topo (Causal.pair_hi a)).Topology.name
    (Causal.pair_lo a)

(* Replace a node's OSPF-learned routes with a fresh table, leaving
   the static host routes alone. *)
let install_routes t node (routes : Lsdb.route list) =
  let daemon = Hashtbl.find t.daemons node in
  let links = Hashtbl.find t.iface_links node in
  let installed =
    match Hashtbl.find_opt t.ospf_installed node with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add t.ospf_installed node r;
        r
  in
  let table = t.tables.(node) in
  Sched.protect_cause t.sched (fun () ->
      ignore
        (Sched.cause_point t.sched t.fib_kind
           (Causal.pair node (List.length routes)));
      List.iter (fun prefix -> Fwd.remove_route table prefix) !installed;
      installed := [];
      List.iter
        (fun (route : Lsdb.route) ->
          let next_hops =
            List.filter_map
              (fun rid ->
                match Daemon.interface_of_neighbor daemon rid with
                | Some iface -> Hashtbl.find_opt links iface
                | None -> None)
              route.Lsdb.next_hops
          in
          if next_hops <> [] then begin
            Fwd.set_route table route.Lsdb.prefix ~next_hops;
            installed := route.Lsdb.prefix :: !installed
          end)
        routes)

let build ?(hello_interval = Time.of_sec 2.0) ?(dead_interval = Time.of_sec 8.0)
    ~cm ~originate topo =
  let sched = Connection_manager.scheduler cm in
  let trace = Connection_manager.trace cm in
  let t =
    {
      fabric_topo = topo;
      sched;
      cm;
      daemons = Hashtbl.create 64;
      processes = Hashtbl.create 64;
      tables = Array.init (Topology.n_nodes topo) (fun _ -> Fwd.create ());
      iface_links = Hashtbl.create 64;
      ospf_installed = Hashtbl.create 64;
      fib_kind = Sched.local_kind sched "fib:write" (fib_write_detail topo);
      originated = Hashtbl.create 64;
      prefixes = [];
      sessions = [];
      converged_fired = false;
      converged_hooks = [];
      checker_armed = false;
    }
  in
  List.iter
    (fun (n : Topology.node) ->
      if is_daemon_node n then begin
        let stubs = originate n.Topology.id in
        Hashtbl.replace t.originated n.Topology.id (List.map fst stubs);
        t.prefixes <- List.map fst stubs @ t.prefixes;
        let router_id =
          match n.Topology.ip with
          | Some ip -> ip
          | None -> synth_router_id n.Topology.id
        in
        let proc = Process.create sched ~name:("ospf-" ^ n.Topology.name) in
        let config =
          {
            (Daemon.default_config ~router_id) with
            Daemon.hello_interval;
            dead_interval;
            stub_prefixes = stubs;
          }
        in
        let daemon = Daemon.create ~trace proc config in
        Hashtbl.replace t.daemons n.Topology.id daemon;
        Hashtbl.replace t.processes n.Topology.id proc;
        Hashtbl.replace t.iface_links n.Topology.id (Hashtbl.create 8)
      end)
    (Topology.nodes topo);
  t.prefixes <- List.sort_uniq Prefix.compare t.prefixes;
  (* Adjacencies over inter-daemon links. *)
  List.iter
    (fun (l : Topology.link) ->
      if l.Topology.link_id < l.Topology.peer then
        match
          ( Hashtbl.find_opt t.daemons l.Topology.src,
            Hashtbl.find_opt t.daemons l.Topology.dst )
        with
        | Some daemon_a, Some daemon_b ->
            let name =
              Printf.sprintf "ospf %s<->%s"
                (Topology.node topo l.Topology.src).Topology.name
                (Topology.node topo l.Topology.dst).Topology.name
            in
            let channel =
              Connection_manager.control_channel ~name
                ~owner_a:(Hashtbl.find t.processes l.Topology.src)
                ~owner_b:(Hashtbl.find t.processes l.Topology.dst)
                cm
            in
            let ep_a, ep_b = Channel.endpoints channel in
            let iface_a = Daemon.add_interface daemon_a ep_a in
            let iface_b = Daemon.add_interface daemon_b ep_b in
            Hashtbl.replace
              (Hashtbl.find t.iface_links l.Topology.src)
              iface_a l.Topology.link_id;
            Hashtbl.replace
              (Hashtbl.find t.iface_links l.Topology.dst)
              iface_b l.Topology.peer;
            t.sessions <-
              {
                node_a = l.Topology.src;
                node_b = l.Topology.dst;
                iface_at_a = iface_a;
                iface_at_b = iface_b;
                channel;
                session_name = name;
              }
              :: t.sessions
        | None, _ | _, None -> ())
    (Topology.links topo);
  (* FIB wiring. *)
  Hashtbl.iter
    (fun node daemon ->
      Daemon.on_routes_change daemon (fun routes -> install_routes t node routes))
    t.daemons;
  (* Static routes, as in the BGP fabric. *)
  List.iter
    (fun (h : Topology.node) ->
      if h.Topology.kind = Topology.Host then
        match Topology.out_links topo h.Topology.id with
        | [ up ] -> (
            Fwd.set_route t.tables.(h.Topology.id) Prefix.any
              ~next_hops:[ up.Topology.link_id ];
            match h.Topology.ip with
            | Some ip ->
                let down = Topology.link topo up.Topology.peer in
                Fwd.set_route t.tables.(up.Topology.dst) (Prefix.host ip)
                  ~next_hops:[ down.Topology.link_id ]
            | None -> ())
        | [] | _ :: _ ->
            invalid_arg "Ospf_fabric.build: hosts must have degree 1")
    (Topology.nodes topo);
  t

let start t = Hashtbl.iter (fun _node daemon -> Daemon.start daemon) t.daemons

let topo t = t.fabric_topo

let daemons t =
  Hashtbl.fold (fun node daemon acc -> (node, daemon) :: acc) t.daemons []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let daemon t node = Hashtbl.find_opt t.daemons node
let table t node = t.tables.(node)
let all_prefixes t = t.prefixes

let is_converged t =
  Hashtbl.fold
    (fun node _daemon acc ->
      acc
      &&
      let own = Option.value (Hashtbl.find_opt t.originated node) ~default:[] in
      List.for_all
        (fun prefix ->
          List.exists (Prefix.equal prefix) own
          || Option.is_some (Fwd.lookup t.tables.(node) (Prefix.network prefix)))
        t.prefixes)
    t.daemons true

let when_converged ?(check_every = Time.of_ms 50) t k =
  if t.converged_fired then k ()
  else begin
    t.converged_hooks <- k :: t.converged_hooks;
    if not t.checker_armed then begin
      t.checker_armed <- true;
      let recurring = ref None in
      let check () =
        if (not t.converged_fired) && is_converged t then begin
          t.converged_fired <- true;
          Horse_telemetry.Registry.Gauge.set
            (Horse_telemetry.Registry.gauge (Sched.registry t.sched)
               ~subsystem:"ospf"
               ~help:"Virtual time at which the fabric converged, seconds"
               "convergence_seconds")
            (Time.to_sec (Sched.now t.sched));
          Option.iter Sched.cancel_recurring !recurring;
          List.iter (fun k -> k ()) (List.rev t.converged_hooks);
          t.converged_hooks <- []
        end
      in
      recurring := Some (Sched.every t.sched check_every check)
    end
  end

let path_for ?hash t key =
  Fib_walk.path_for ?hash ~topo:t.fabric_topo
    ~table:(fun node -> t.tables.(node))
    key

let adjacencies_expected t = List.length t.sessions

let adjacencies_full t =
  Hashtbl.fold (fun _node d acc -> acc + Daemon.full_neighbors d) t.daemons 0 / 2

let find_session t ~a ~b =
  List.find_opt
    (fun s -> (s.node_a = a && s.node_b = b) || (s.node_a = b && s.node_b = a))
    t.sessions

let fail_link t ~a ~b =
  match find_session t ~a ~b with
  | Some session when Channel.is_open session.channel ->
      Channel.close session.channel;
      true
  | Some _ | None -> false

let restore_link t ~a ~b =
  match find_session t ~a ~b with
  | Some session when not (Channel.is_open session.channel) -> (
      match
        ( Hashtbl.find_opt t.daemons session.node_a,
          Hashtbl.find_opt t.daemons session.node_b )
      with
      | Some daemon_a, Some daemon_b ->
          let channel =
            Connection_manager.control_channel ~name:session.session_name
              ~owner_a:(Hashtbl.find t.processes session.node_a)
              ~owner_b:(Hashtbl.find t.processes session.node_b)
              t.cm
          in
          let ep_a, ep_b = Channel.endpoints channel in
          Daemon.rebind_interface daemon_a session.iface_at_a ep_a;
          Daemon.rebind_interface daemon_b session.iface_at_b ep_b;
          session.channel <- channel;
          true
      | None, _ | _, None -> false)
  | Some _ | None -> false

(* --- fault-injection surface ---------------------------------------- *)

let crash_node t node =
  match Hashtbl.find_opt t.processes node with
  | Some proc when Process.is_alive proc ->
      Process.kill proc;
      true
  | Some _ | None -> false

let restart_node t node =
  match Hashtbl.find_opt t.processes node with
  | Some proc when not (Process.is_alive proc) ->
      Process.restart proc;
      true
  | Some _ | None -> false

let impair_link t ~a ~b ~rng imp =
  match find_session t ~a ~b with
  | None -> false
  | Some session ->
      (match imp with
      | Some imp -> Channel.set_impairment session.channel ~rng imp
      | None -> Channel.clear_impairment session.channel);
      true

let node_name t id = (Topology.node t.fabric_topo id).Topology.name

let node_id t name =
  Option.map
    (fun (n : Topology.node) -> n.Topology.id)
    (Topology.node_by_name t.fabric_topo name)

let fault_target t =
  let with1 n f = match node_id t n with Some id -> f id | None -> false in
  let with2 a b f =
    match (node_id t a, node_id t b) with
    | Some a, Some b -> f a b
    | _, _ -> false
  in
  {
    Horse_faults.Injector.describe = "ospf-fabric";
    link_down = (fun ~a ~b -> with2 a b (fun a b -> fail_link t ~a ~b));
    link_up = (fun ~a ~b -> with2 a b (fun a b -> restore_link t ~a ~b));
    node_crash = (fun n -> with1 n (crash_node t));
    node_restart = (fun n -> with1 n (restart_node t));
    (* OSPF has no session abstraction to reset; model it as a flap. *)
    session_reset = (fun ~a:_ ~b:_ -> false);
    impair =
      (fun ~a ~b ~rng imp -> with2 a b (fun a b -> impair_link t ~a ~b ~rng imp));
    links =
      (fun () ->
        List.rev_map
          (fun s -> (node_name t s.node_a, node_name t s.node_b))
          t.sessions);
    converged =
      (fun () -> adjacencies_full t = adjacencies_expected t && is_converged t);
  }
