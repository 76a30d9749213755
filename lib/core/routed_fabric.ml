open Horse_net
open Horse_engine
open Horse_topo
open Horse_dataplane
open Horse_emulation
open Horse_bgp

type session = {
  node_a : int;  (* the end a one-sided reset comes from *)
  node_b : int;
  peer_at_a : int;
  peer_at_b : int;
  mutable channel : Channel.t;
  session_name : string;
}

type t = {
  fabric_topo : Topology.t;
  cm : Connection_manager.t;
  speakers : (int, Speaker.t) Hashtbl.t;  (* node id -> speaker *)
  processes : (int, Process.t) Hashtbl.t;
  tables : Fwd.t array;  (* per node id *)
  mutable fib_writes : int;
  fib_prov : (int * Prefix.t, Causal.id) Hashtbl.t;
  fib_kind : Causal.kind;
  mutable converged_fired : bool;
  mutable converged_hooks : (unit -> unit) list;  (* reversed *)
  mutable checker_armed : bool;
  mutable speaker_nodes : int list;  (* newest first *)
  originated : (int, Prefix.t list) Hashtbl.t;
  mutable prefixes : Prefix.t list;
  fib_hooks : (int -> Prefix.t -> unit) Hooks.t;
  session_table : (int * int, session) Hashtbl.t;  (* unordered node pair *)
  mutable sessions : session list;  (* newest first *)
}

let synth_router_id id = Ipv4.of_octets 10 255 (id / 250) ((id mod 250) + 1)

let is_speaker_node (n : Topology.node) =
  match n.Topology.kind with
  | Topology.Switch | Topology.Router -> true
  | Topology.Host -> false

let node_name t id = (Topology.node t.fabric_topo id).Topology.name
let sched t = Connection_manager.scheduler t.cm
let pair a b = if a <= b then (a, b) else (b, a)

(* A FIB write's payload: the node id above the prefix's 38 bits. Its
   printer names the node through the topology, so the kind is
   registered on the run's graph, not program-wide. *)
let prefix_bits = 38

let pack_fib_write ~node prefix =
  if node < 0 || node lsr 24 <> 0 then
    invalid_arg (Printf.sprintf "Routed_fabric.pack_fib_write: node %d" node);
  (node lsl prefix_bits) lor Prefix.to_bits prefix

let fib_write_detail topo a =
  Printf.sprintf "%s %s"
    (Topology.node topo (a lsr prefix_bits)).Topology.name
    (Prefix.to_string (Prefix.of_bits (a land ((1 lsl prefix_bits) - 1))))

let record_fib_write t node prefix =
  t.fib_writes <- t.fib_writes + 1;
  (* Terminal provenance: the FIB entry remembers the decision chain
     that last wrote it. *)
  let cause =
    Sched.cause_point (sched t) t.fib_kind (pack_fib_write ~node prefix)
  in
  Hashtbl.replace t.fib_prov (node, prefix) cause

(* Loc-RIB -> FIB: translate each best route's source peer into the
   out-link its session runs over; multipath routes become one ECMP
   group. Locally originated prefixes keep their static routes. *)
let install_fib t node peer_links prefix (routes : Rib.route list) =
  let next_hops =
    List.filter_map
      (fun (r : Rib.route) ->
        if r.Rib.peer = Rib.local_peer then None
        else Hashtbl.find_opt peer_links r.Rib.peer)
      routes
  in
  let table = t.tables.(node) in
  Sched.protect_cause (sched t) (fun () ->
      (match (routes, next_hops) with
      | [], _ ->
          Fwd.remove_route table prefix;
          record_fib_write t node prefix
      | _ :: _, [] -> () (* purely local: static routes already cover it *)
      | _ :: _, _ :: _ ->
          Fwd.set_route table prefix ~next_hops;
          record_fib_write t node prefix);
      Hooks.iter (fun f -> f node prefix) t.fib_hooks)

let build ?(asn_base = 64512) ?(hold_time = Time.of_sec 9.0)
    ?(mrai = Time.zero) ~cm ~originate topo =
  let t =
    {
      fabric_topo = topo;
      cm;
      speakers = Hashtbl.create 64;
      processes = Hashtbl.create 64;
      tables = Array.init (Topology.n_nodes topo) (fun _ -> Fwd.create ());
      fib_writes = 0;
      fib_prov = Hashtbl.create 256;
      fib_kind =
        Sched.local_kind
          (Connection_manager.scheduler cm)
          "fib:write" (fib_write_detail topo);
      converged_fired = false;
      converged_hooks = [];
      checker_armed = false;
      speaker_nodes = [];
      originated = Hashtbl.create 64;
      prefixes = [];
      fib_hooks = Hooks.create ();
      session_table = Hashtbl.create 64;
      sessions = [];
    }
  in
  List.iter
    (fun (n : Topology.node) ->
      if is_speaker_node n then begin
        let networks = originate n.Topology.id in
        Hashtbl.replace t.originated n.Topology.id networks;
        t.prefixes <- networks @ t.prefixes;
        let router_id =
          match n.Topology.ip with
          | Some ip -> ip
          | None -> synth_router_id n.Topology.id
        in
        let proc = Process.create (sched t) ~name:("bgp-" ^ n.Topology.name) in
        let config =
          {
            (Speaker.default_config ~asn:(asn_base + n.Topology.id) ~router_id) with
            Speaker.hold_time;
            mrai;
            networks;
          }
        in
        let speaker =
          Speaker.create ~trace:(Connection_manager.trace cm) proc config
        in
        Hashtbl.replace t.speakers n.Topology.id speaker;
        Hashtbl.replace t.processes n.Topology.id proc;
        t.speaker_nodes <- n.Topology.id :: t.speaker_nodes
      end)
    (Topology.nodes topo);
  t.prefixes <- List.sort_uniq Prefix.compare t.prefixes;
  (* Sessions over inter-speaker links, one per duplex pair, each on a
     CM-observed channel. *)
  let peer_links : (int, (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let peer_links_of node =
    match Hashtbl.find_opt peer_links node with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 8 in
        Hashtbl.add peer_links node tbl;
        tbl
  in
  List.iter
    (fun (l : Topology.link) ->
      (* Visit each duplex pair once, from its lower link id. *)
      if l.Topology.link_id < l.Topology.peer then
        match
          ( Hashtbl.find_opt t.speakers l.Topology.src,
            Hashtbl.find_opt t.speakers l.Topology.dst )
        with
        | Some speaker_a, Some speaker_b ->
            let name =
              Printf.sprintf "bgp %s<->%s"
                (node_name t l.Topology.src)
                (node_name t l.Topology.dst)
            in
            let owner_a = Hashtbl.find t.processes l.Topology.src in
            let owner_b = Hashtbl.find t.processes l.Topology.dst in
            let channel =
              Connection_manager.control_channel ~name ~owner_a ~owner_b cm
            in
            let ep_a, ep_b = Channel.endpoints channel in
            let peer_at_a =
              Speaker.add_peer speaker_a ~remote_asn:(Speaker.asn speaker_b) ep_a
            in
            let peer_at_b =
              Speaker.add_peer speaker_b ~remote_asn:(Speaker.asn speaker_a) ep_b
            in
            Hashtbl.replace (peer_links_of l.Topology.src) peer_at_a
              l.Topology.link_id;
            Hashtbl.replace (peer_links_of l.Topology.dst) peer_at_b
              l.Topology.peer;
            let session =
              {
                node_a = l.Topology.src;
                node_b = l.Topology.dst;
                peer_at_a;
                peer_at_b;
                channel;
                session_name = name;
              }
            in
            t.sessions <- session :: t.sessions;
            Hashtbl.replace t.session_table
              (pair l.Topology.src l.Topology.dst)
              session
        | None, _ | _, None -> ())
    (Topology.links topo);
  (* FIB wiring. *)
  Hashtbl.iter
    (fun node speaker ->
      let links = peer_links_of node in
      Speaker.on_loc_rib_change speaker (fun prefix routes ->
          install_fib t node links prefix routes))
    t.speakers;
  (* Static routes: hosts default up; edge switches reach their hosts
     on connected /32s. *)
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
            invalid_arg "Routed_fabric.build: hosts must have degree 1")
    (Topology.nodes topo);
  t

let start t = Hashtbl.iter (fun _node speaker -> Speaker.start speaker) t.speakers

let topo t = t.fabric_topo

let speakers t =
  Hashtbl.fold (fun node speaker acc -> (node, speaker) :: acc) t.speakers []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let speaker t node = Hashtbl.find_opt t.speakers node
let table t node = t.tables.(node)
let all_prefixes t = t.prefixes

let fib_routes_installed t = t.fib_writes

let on_fib_change t f = Hooks.add t.fib_hooks f
let own_prefixes t node = Option.value (Hashtbl.find_opt t.originated node) ~default:[]

(* Every speaker resolves every prefix it does not originate itself. *)
let is_converged t =
  List.for_all
    (fun node ->
      let own = own_prefixes t node in
      List.for_all
        (fun prefix ->
          List.exists (Prefix.equal prefix) own
          || Option.is_some (Fwd.lookup t.tables.(node) (Prefix.network prefix)))
        t.prefixes)
    t.speaker_nodes

let when_converged ?(check_every = Time.of_ms 50) t k =
  if t.converged_fired then k ()
  else begin
    t.converged_hooks <- k :: t.converged_hooks;
    if not t.checker_armed then begin
      t.checker_armed <- true;
      let sched = sched t in
      let recurring = ref None in
      let check () =
        if (not t.converged_fired) && is_converged t then begin
          t.converged_fired <- true;
          Horse_telemetry.Registry.Gauge.set
            (Horse_telemetry.Registry.gauge (Sched.registry sched)
               ~subsystem:"bgp"
               ~help:"Virtual time at which the fabric converged, seconds"
               "convergence_seconds")
            (Time.to_sec (Sched.now sched));
          Option.iter Sched.cancel_recurring !recurring;
          List.iter (fun k -> k ()) (List.rev t.converged_hooks);
          t.converged_hooks <- []
        end
      in
      recurring := Some (Sched.every sched check_every check)
    end
  end

let sessions_expected t = List.length t.sessions

let sessions_established t =
  (* Each session is counted from both of its ends. *)
  Hashtbl.fold
    (fun _node speaker acc -> acc + Speaker.established_count speaker)
    t.speakers 0
  / 2

let path_for ?hash t key =
  Fib_walk.path_for ?hash ~topo:t.fabric_topo ~table:(fun node -> t.tables.(node)) key

(* --- fault-injection surface ---------------------------------------- *)

let find_session t ~a ~b = Hashtbl.find_opt t.session_table (pair a b)

let fail_session session =
  if Channel.is_open session.channel then begin
    Channel.close session.channel;
    true
  end
  else false

let restore_session t session =
  if Channel.is_open session.channel then false
  else begin
    let speaker_a = Hashtbl.find t.speakers session.node_a in
    let speaker_b = Hashtbl.find t.speakers session.node_b in
    let channel =
      Connection_manager.control_channel ~name:session.session_name
        ~owner_a:(Hashtbl.find t.processes session.node_a)
        ~owner_b:(Hashtbl.find t.processes session.node_b)
        t.cm
    in
    let ep_a, ep_b = Channel.endpoints channel in
    Speaker.replace_peer_endpoint speaker_a session.peer_at_a ep_a;
    Speaker.replace_peer_endpoint speaker_b session.peer_at_b ep_b;
    session.channel <- channel;
    Speaker.start_peer speaker_a session.peer_at_a;
    Speaker.start_peer speaker_b session.peer_at_b;
    true
  end

let impair_session ~rng imp session =
  (match imp with
  | Some imp -> Channel.set_impairment session.channel ~rng imp
  | None -> Channel.clear_impairment session.channel);
  true

let reset t session =
  (* One-sided, like "clear ip bgp" on router [a]'s end: the Cease
     travels to the other side, and both ConnectRetry timers bring the
     session back. *)
  Speaker.reset_session (Hashtbl.find t.speakers session.node_a)
    session.peer_at_a;
  true

let on_session t ~a ~b f =
  match find_session t ~a ~b with Some session -> f session | None -> false

let fail_link t ~a ~b = on_session t ~a ~b fail_session
let restore_link t ~a ~b = on_session t ~a ~b (restore_session t)
let reset_session t ~a ~b = on_session t ~a ~b (reset t)

let impair_link t ~a ~b ~rng imp = on_session t ~a ~b (impair_session ~rng imp)

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

let node_id t name =
  Option.map
    (fun (n : Topology.node) -> n.Topology.id)
    (Topology.node_by_name t.fabric_topo name)

let fault_target t =
  let with_node name f =
    match node_id t name with Some id -> f id | None -> false
  in
  let with_session a b f =
    match (node_id t a, node_id t b) with
    | Some a, Some b -> on_session t ~a ~b f
    | _, _ -> false
  in
  {
    Horse_faults.Injector.describe = "routed-fabric";
    link_down = (fun ~a ~b -> with_session a b fail_session);
    link_up = (fun ~a ~b -> with_session a b (restore_session t));
    node_crash = (fun n -> with_node n (crash_node t));
    node_restart = (fun n -> with_node n (restart_node t));
    session_reset = (fun ~a ~b -> with_session a b (reset t));
    impair = (fun ~a ~b ~rng imp -> with_session a b (impair_session ~rng imp));
    links =
      (fun () ->
        List.fold_left
          (fun acc s -> (node_name t s.node_a, node_name t s.node_b) :: acc)
          [] t.sessions);
    converged =
      (fun () -> sessions_established t = sessions_expected t && is_converged t);
  }

(* One entry per BGP-learned prefix currently resolvable in a
   speaker's FIB (own originations carry no provenance — nothing wrote
   them but setup). *)
let fib_provenance t =
  let entries =
    Hashtbl.fold
      (fun node _speaker acc ->
        let own = own_prefixes t node in
        List.fold_left
          (fun acc prefix ->
            if List.exists (Prefix.equal prefix) own then acc
            else if
              Option.is_some
                (Fwd.lookup t.tables.(node) (Prefix.network prefix))
            then
              let cause =
                Option.value
                  (Hashtbl.find_opt t.fib_prov (node, prefix))
                  ~default:Causal.none
              in
              (node_name t node, prefix, cause) :: acc
            else acc)
          acc t.prefixes)
      t.speakers []
  in
  List.sort
    (fun (n1, p1, _) (n2, p2, _) ->
      match String.compare n1 n2 with
      | 0 -> Prefix.compare p1 p2
      | c -> c)
    entries

let fib_fingerprint t =
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun node table ->
      Buffer.add_string buf (string_of_int node);
      List.iter
        (fun (prefix, hops) ->
          Buffer.add_char buf '|';
          Buffer.add_string buf (Prefix.to_string prefix);
          Buffer.add_char buf '>';
          List.iter
            (fun h ->
              Buffer.add_string buf (string_of_int h);
              Buffer.add_char buf ',')
            hops)
        (Fwd.routes table);
      Buffer.add_char buf '\n')
    t.tables;
  Digest.to_hex (Digest.string (Buffer.contents buf))
