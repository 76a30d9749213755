open Horse_net
open Horse_engine
open Horse_topo
open Horse_dataplane
open Horse_emulation

type 'd protocol = {
  name : string;
  describe : string;
  router_id_net : int;
  fib_detail : Topology.t -> int -> string;
  create : Process.t -> Topology.node -> router_id:Ipv4.t -> 'd * Prefix.t list;
  attach : 'd -> remote:'d -> Channel.endpoint -> int;
  rebind : 'd -> int -> Channel.endpoint -> unit;
  resume : 'd -> int -> unit;
  reset : ('d -> int -> unit) option;
  established : 'd -> int;
  start : 'd -> unit;
}

type session = {
  node_a : int;  (* the end a one-sided reset comes from *)
  node_b : int;
  end_a : int;  (* the protocol's handle for the session at each end *)
  end_b : int;
  mutable channel : Channel.t;
  session_name : string;
}

(* Convergence states of a (node, tracked prefix) pair. *)
let own = '\000'  (* the node originates the prefix: not tracked *)
let missing = '\001'
let resolved = '\002'

type 'd fabric = {
  proto : 'd protocol;
  fabric_topo : Topology.t;
  cm : Connection_manager.t;
  daemons : (int, 'd) Hashtbl.t;  (* node id -> daemon *)
  processes : (int, Process.t) Hashtbl.t;
  tables : Fwd.t array;  (* per node id *)
  end_links : (int, int) Hashtbl.t array;
      (* per node id: session end handle -> out-link id *)
  session_table : (int * int, session) Hashtbl.t;  (* unordered node pair *)
  mutable sessions : session list;  (* newest first *)
  fib_kind : Causal.kind;
  mutable fib_writes : int;
  fib_prov : (int * Prefix.t, Causal.id) Hashtbl.t;
  fib_hooks : (int -> Prefix.t -> unit) Hooks.t;
  (* The convergence latch: [state.(node)] holds one of [own],
     [missing], [resolved] per tracked prefix, [n_missing] counts the
     [missing] ones, and [covers] memoises, per written prefix (by
     {!Prefix.to_bits}), the tracked prefixes whose network address it
     covers — the only pairs a write to it can move. *)
  tracked : Prefix.t array;  (* sorted, unique *)
  state : Bytes.t array;
  covers : (int, int array) Hashtbl.t;
  n_missing : int ref;
  latch : Latch.t;
}

let sched t = Connection_manager.scheduler t.cm
let node_name t id = (Topology.node t.fabric_topo id).Topology.name
let pair a b = if a <= b then (a, b) else (b, a)

let is_daemon_node (n : Topology.node) =
  match n.Topology.kind with
  | Topology.Switch | Topology.Router -> true
  | Topology.Host -> false

let resolves table prefix = Option.is_some (Fwd.lookup table (Prefix.network prefix))

let covered t prefix =
  let key = Prefix.to_bits prefix in
  match Hashtbl.find_opt t.covers key with
  | Some c -> c
  | None ->
      let c = ref [] in
      for i = Array.length t.tracked - 1 downto 0 do
        if Prefix.mem (Prefix.network t.tracked.(i)) prefix then c := i :: !c
      done;
      let c = Array.of_list !c in
      Hashtbl.add t.covers key c;
      c

(* Installs or removes a route and moves the latch. An installed route
   resolves every tracked prefix it covers; after a removal each must be
   looked up again, since another route may still cover it. *)
let route t node prefix next_hops =
  let table = t.tables.(node) in
  (match next_hops with
  | [] -> Fwd.remove_route table prefix
  | _ :: _ -> Fwd.set_route table prefix ~next_hops);
  let st = t.state.(node) in
  if Bytes.length st > 0 then begin
    let covered = covered t prefix in
    for k = 0 to Array.length covered - 1 do
      let i = covered.(k) in
      let was = Bytes.get st i in
      if was <> own then begin
        let now =
          if next_hops <> [] || resolves table t.tracked.(i) then resolved else missing
        in
        if now <> was then begin
          Bytes.set st i now;
          t.n_missing := !(t.n_missing) + if now = missing then 1 else -1
        end
      end
    done;
    Latch.poke t.latch
  end

let fib_update t payload f =
  Sched.protect_cause (sched t) (fun () ->
      ignore (Sched.cause_point (sched t) t.fib_kind payload);
      f ())

let write t node prefix next_hops =
  route t node prefix next_hops;
  t.fib_writes <- t.fib_writes + 1;
  (* Terminal provenance: the entry remembers the chain that last
     wrote it. *)
  Hashtbl.replace t.fib_prov (node, prefix) (Sched.current_cause (sched t));
  Hooks.iter (fun f -> f node prefix) t.fib_hooks

let link_of t node handle = Hashtbl.find_opt t.end_links.(node) handle

let build ~cm proto topo =
  let sched = Connection_manager.scheduler cm in
  let fib_kind = Sched.local_kind sched "fib:write" (proto.fib_detail topo) in
  let n_nodes = Topology.n_nodes topo in
  let tables = Array.init n_nodes (fun _ -> Fwd.create ()) in
  let daemons = Hashtbl.create 64 in
  let processes = Hashtbl.create 64 in
  let no_links = Hashtbl.create 0 in
  let end_links = Array.make n_nodes no_links in
  let originated = ref [] in
  List.iter
    (fun (n : Topology.node) ->
      if is_daemon_node n then begin
        let id = n.Topology.id in
        let router_id =
          match n.Topology.ip with
          | Some ip -> ip
          | None -> Ipv4.of_octets 10 proto.router_id_net (id / 250) ((id mod 250) + 1)
        in
        let proc = Process.create sched in
        let daemon, networks = proto.create proc n ~router_id in
        Hashtbl.replace daemons id daemon;
        Hashtbl.replace processes id proc;
        end_links.(id) <- Hashtbl.create 8;
        originated := (id, networks) :: !originated
      end)
    (Topology.nodes topo);
  let tracked =
    Array.of_list (List.sort_uniq Prefix.compare (List.concat_map snd !originated))
  in
  let n_missing = ref 0 in
  let t =
    {
      proto;
      fabric_topo = topo;
      cm;
      daemons;
      processes;
      tables;
      end_links;
      session_table = Hashtbl.create 64;
      sessions = [];
      fib_kind;
      fib_writes = 0;
      fib_prov = Hashtbl.create 256;
      fib_hooks = Hooks.create ();
      tracked;
      state = Array.make n_nodes Bytes.empty;
      covers = Hashtbl.create 64;
      n_missing;
      latch =
        Latch.create
          ~on_fire:(fun () ->
            Horse_telemetry.Registry.Gauge.set
              (Horse_telemetry.Registry.gauge (Sched.registry sched)
                 ~subsystem:proto.name
                 ~help:"Virtual time at which the fabric converged, seconds"
                 "convergence_seconds")
              (Time.to_sec (Sched.now sched)))
          sched
          (fun () -> !n_missing = 0);
    }
  in
  (* Sessions over inter-daemon links, one per duplex pair (visited
     from its lower link id), each on a CM-observed channel. *)
  List.iter
    (fun (l : Topology.link) ->
      let a = l.Topology.src and b = l.Topology.dst in
      if l.Topology.link_id < l.Topology.peer then
        match (Hashtbl.find_opt daemons a, Hashtbl.find_opt daemons b) with
        | Some daemon_a, Some daemon_b ->
            let name =
              Printf.sprintf "%s %s<->%s" proto.name (node_name t a) (node_name t b)
            in
            let channel =
              Connection_manager.control_channel ~name cm
            in
            let ep_a, ep_b = Channel.endpoints channel in
            let end_a = proto.attach daemon_a ~remote:daemon_b ep_a in
            let end_b = proto.attach daemon_b ~remote:daemon_a ep_b in
            Hashtbl.replace end_links.(a) end_a l.Topology.link_id;
            Hashtbl.replace end_links.(b) end_b l.Topology.peer;
            let session =
              { node_a = a; node_b = b; end_a; end_b; channel; session_name = name }
            in
            t.sessions <- session :: t.sessions;
            Hashtbl.replace t.session_table (pair a b) session
        | None, _ | _, None -> ())
    (Topology.links topo);
  (* Every daemon tracks every prefix it does not originate itself;
     the static routes below resolve the pairs they cover. *)
  List.iter
    (fun (node, networks) ->
      t.state.(node) <-
        Bytes.init (Array.length tracked) (fun i ->
            if List.exists (Prefix.equal tracked.(i)) networks then own
            else begin
              incr n_missing;
              missing
            end))
    !originated;
  (* Static routes: hosts default up; edge switches reach their hosts
     on connected /32s. *)
  List.iter
    (fun (h : Topology.node) ->
      if h.Topology.kind = Topology.Host then
        match Topology.out_links topo h.Topology.id with
        | [ up ] -> (
            route t h.Topology.id Prefix.any [ up.Topology.link_id ];
            match h.Topology.ip with
            | Some ip ->
                let down = Topology.link topo up.Topology.peer in
                route t up.Topology.dst (Prefix.host ip) [ down.Topology.link_id ]
            | None -> ())
        | [] | _ :: _ ->
            invalid_arg (proto.describe ^ ": hosts must have degree 1"))
    (Topology.nodes topo);
  t

let start t = Hashtbl.iter (fun _node daemon -> t.proto.start daemon) t.daemons

let topo t = t.fabric_topo

let daemons t =
  Hashtbl.fold (fun node daemon acc -> (node, daemon) :: acc) t.daemons []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let daemon t node = Hashtbl.find_opt t.daemons node
let table t node = t.tables.(node)
let all_prefixes t = Array.to_list t.tracked
let fib_routes_installed t = t.fib_writes
let on_fib_change t f = Hooks.add t.fib_hooks f
let is_converged t = !(t.n_missing) = 0
let when_converged t k = Latch.on t.latch k
let sessions_expected t = List.length t.sessions

let sessions_established t =
  (* Each session is counted from both of its ends. *)
  Hashtbl.fold (fun _node d acc -> acc + t.proto.established d) t.daemons 0 / 2

let path_for ?(hash = Flow_key.hash_src_dst) t (key : Flow_key.t) =
  let topo = t.fabric_topo in
  match Topology.node_by_ip topo key.Flow_key.src with
  | None -> Error "unknown source address"
  | Some src ->
      let h = hash key in
      let rec walk node acc hops =
        let n = Topology.node topo node in
        match n.Topology.ip with
        | Some ip when Ipv4.equal ip key.Flow_key.dst -> Ok (List.rev acc)
        | Some _ | None -> (
            if hops > 64 then Error "path exceeds 64 hops (routing loop?)"
            else
              match Fwd.lookup_select t.tables.(node) key.Flow_key.dst ~hash:h with
              | None ->
                  Error
                    (Printf.sprintf "no route to %s at %s"
                       (Ipv4.to_string key.Flow_key.dst)
                       n.Topology.name)
              | Some link_id ->
                  let link = Topology.link topo link_id in
                  walk link.Topology.dst (link :: acc) (hops + 1))
      in
      walk src.Topology.id [] 0

(* A flow left without a route keeps its path for this long before it
   is stopped; a re-walk that finds a route in between keeps it. *)
let unroutable_for = Time.of_sec 2.0

let follow ?hash t fluid flows =
  let sched = sched t in
  let same_link (a : Topology.link) (b : Topology.link) =
    a.Topology.link_id = b.Topology.link_id
  in
  let rewalk ((flow : Flow.t), stop) =
    if flow.Flow.active then
      match path_for ?hash t flow.Flow.key with
      | Ok path ->
          Option.iter Sched.cancel !stop;
          stop := None;
          if not (List.equal same_link path flow.Flow.path) then
            Fluid.set_path fluid flow path
      | Error _ ->
          if Option.is_none !stop then
            stop :=
              Some
                (Sched.schedule_after sched unroutable_for (fun () ->
                     Fluid.stop_flow fluid flow))
  in
  let followed = List.map (fun flow -> (flow, ref None)) flows in
  (* One re-walk per instant, after every write of that instant. *)
  let queued = ref false in
  if flows <> [] then
    on_fib_change t (fun _node _prefix ->
        if not !queued then begin
          queued := true;
          Sched.defer sched (fun () ->
              queued := false;
              List.iter rewalk followed)
        end)

(* --- fault-injection surface ---------------------------------------- *)

let fail_session session =
  if Channel.is_open session.channel then begin
    Channel.close session.channel;
    true
  end
  else false

let restore_session t session =
  if Channel.is_open session.channel then false
  else begin
    let daemon_a = Hashtbl.find t.daemons session.node_a in
    let daemon_b = Hashtbl.find t.daemons session.node_b in
    let channel =
      Connection_manager.control_channel ~name:session.session_name t.cm
    in
    let ep_a, ep_b = Channel.endpoints channel in
    t.proto.rebind daemon_a session.end_a ep_a;
    t.proto.rebind daemon_b session.end_b ep_b;
    session.channel <- channel;
    t.proto.resume daemon_a session.end_a;
    t.proto.resume daemon_b session.end_b;
    true
  end

let reset t session =
  match t.proto.reset with
  | Some reset ->
      reset (Hashtbl.find t.daemons session.node_a) session.end_a;
      true
  | None -> false

let impair_session ~rng imp session =
  (match imp with
  | Some imp -> Channel.set_impairment session.channel ~rng imp
  | None -> Channel.clear_impairment session.channel);
  true

let on_session t ~a ~b f =
  match Hashtbl.find_opt t.session_table (pair a b) with
  | Some session -> f session
  | None -> false

let fail_link t ~a ~b = on_session t ~a ~b fail_session
let restore_link t ~a ~b = on_session t ~a ~b (restore_session t)

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

let fault_target t =
  let node_id name =
    Option.map
      (fun (n : Topology.node) -> n.Topology.id)
      (Topology.node_by_name t.fabric_topo name)
  in
  let with_node name f = match node_id name with Some id -> f id | None -> false in
  let with_session a b f =
    match (node_id a, node_id b) with
    | Some a, Some b -> on_session t ~a ~b f
    | _, _ -> false
  in
  {
    Horse_faults.Injector.describe = t.proto.describe;
    link_down = (fun ~a ~b -> with_session a b fail_session);
    link_up = (fun ~a ~b -> with_session a b (restore_session t));
    node_crash = (fun n -> with_node n (crash_node t));
    node_restart = (fun n -> with_node n (restart_node t));
    session_reset = (fun ~a ~b -> with_session a b (reset t));
    impair = (fun ~a ~b ~rng imp -> with_session a b (impair_session ~rng imp));
    links =
      (fun () ->
        List.rev_map (fun s -> (node_name t s.node_a, node_name t s.node_b)) t.sessions);
    converged =
      (fun () -> is_converged t && sessions_established t = sessions_expected t);
  }

(* One entry per learned prefix currently resolvable in a daemon's FIB
   (own originations carry no provenance — nothing wrote them but
   setup). *)
let fib_provenance t =
  Hashtbl.fold
    (fun node _daemon acc ->
      let st = t.state.(node) in
      let acc = ref acc in
      Array.iteri
        (fun i prefix ->
          if Bytes.get st i = resolved then
            let cause =
              Option.value
                (Hashtbl.find_opt t.fib_prov (node, prefix))
                ~default:Causal.none
            in
            acc := (node_name t node, prefix, cause) :: !acc)
        t.tracked;
      !acc)
    t.daemons []
  |> List.sort (fun (n1, p1, _) (n2, p2, _) ->
         match String.compare n1 n2 with 0 -> Prefix.compare p1 p2 | c -> c)

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
