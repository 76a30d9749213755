open Horse_net
open Horse_engine
open Horse_topo
open Horse_dataplane
open Horse_emulation
open Horse_bgp
module Registry = Horse_telemetry.Registry

(* A sharded BGP fabric: the Routed_fabric experiment partitioned over
   shards and driven in lockstep by a Barrier. The shard structure —
   which nodes live where, which sessions cross the cut — is fixed by
   the Partition alone; how many domains execute the shards is chosen
   at run time and changes nothing observable. That is the whole
   determinism argument, and the differential tests hold the
   implementation to it byte-for-byte. *)

type shard_ctx = {
  shard : Shard.t;
  sh_trace : Trace.t;
  sh_cm : Connection_manager.t;
  mutable sh_speakers : (int * Speaker.t) list;  (* node id asc *)
  mutable sh_fib_writes : int;
  sh_fib_prov : (int * Prefix.t, Causal.id) Hashtbl.t;
  mutable sh_peer_slots : int;  (* peers added across this shard's speakers *)
  mutable sh_injector : Horse_faults.Injector.t option;
  mutable sh_converged_at : Time.t option;
}

type session = {
  node_a : int;
  node_b : int;
  shard_a : int;  (* owner shard: applies faults, recreates channels *)
  shard_b : int;
  peer_at_a : int;
  peer_at_b : int;
  mutable channel : Channel.t;
  session_name : string;
}

type t = {
  mc_topo : Topology.t;
  partition : Partition.t;
  barrier : Barrier.t;
  ctxs : shard_ctx array;
  owner : int array;  (* node id -> shard index *)
  speakers : (int, Speaker.t) Hashtbl.t;
  processes : (int, Process.t) Hashtbl.t;
  tables : Fwd.t array;  (* per node id; each written only by its owner *)
  originated : (int, Prefix.t list) Hashtbl.t;
  mutable prefixes : Prefix.t list;
  mutable sessions : session list;
  session_by_site : (string, session) Hashtbl.t;
}

let synth_router_id id = Ipv4.of_octets 10 255 (id / 250) ((id mod 250) + 1)

let is_speaker_node (n : Topology.node) =
  match n.Topology.kind with
  | Topology.Switch | Topology.Router -> true
  | Topology.Host -> false

let node_name t id = (Topology.node t.mc_topo id).Topology.name

let site_key a b = if String.compare a b <= 0 then a ^ "<->" ^ b else b ^ "<->" ^ a

(* Same FIB translation as Routed_fabric, against the owner shard's
   scheduler and provenance table. Runs on the owner's domain. *)
let install_fib t ctx node peer_links prefix (routes : Rib.route list) =
  let sched = Shard.sched ctx.shard in
  let next_hops =
    List.filter_map
      (fun (r : Rib.route) ->
        if r.Rib.peer = Rib.local_peer then None
        else Hashtbl.find_opt peer_links r.Rib.peer)
      routes
  in
  let table = t.tables.(node) in
  let record_write () =
    ctx.sh_fib_writes <- ctx.sh_fib_writes + 1;
    let cause =
      Sched.cause_point sched ~kind:"fib:write" (fun () ->
          Printf.sprintf "%s %s" (node_name t node) (Prefix.to_string prefix))
    in
    Hashtbl.replace ctx.sh_fib_prov (node, prefix) cause
  in
  Sched.protect_cause sched (fun () ->
      match (routes, next_hops) with
      | [], _ ->
          Fwd.remove_route table prefix;
          record_write ()
      | _ :: _, [] -> ()
      | _ :: _, _ :: _ ->
          Fwd.set_route table prefix ~next_hops;
          record_write ())

let build ?(asn_base = 64512) ?(hold_time = Time.of_sec 9.0)
    ?(mrai = Time.zero) ?sched_config ?(seed = 42)
    ?(quantum = Time.of_ms 1) ?(latency = Time.of_ms 1) ~partition
    ~originate topo =
  if Time.(latency < quantum) then
    invalid_arg
      "Multicore.build: channel latency below the barrier quantum breaks \
       conservative lookahead";
  Partition.validate partition topo;
  let n_sh = Partition.n_shards partition in
  let ctxs =
    Array.init n_sh (fun i ->
        let shard =
          Shard.create ?config:sched_config ~index:i
            ~name:(Partition.shard_name partition i)
            ~seed ()
        in
        let sh_trace = Trace.create () in
        Trace.bind_registry sh_trace (Shard.registry shard);
        {
          shard;
          sh_trace;
          sh_cm =
            Connection_manager.create (Shard.sched shard) sh_trace;
          sh_speakers = [];
          sh_fib_writes = 0;
          sh_fib_prov = Hashtbl.create 256;
          sh_peer_slots = 0;
          sh_injector = None;
          sh_converged_at = None;
        })
  in
  let barrier = Barrier.create ~quantum (Array.map (fun c -> c.shard) ctxs) in
  let owner = Array.make (Topology.n_nodes topo) 0 in
  List.iter
    (fun (n : Topology.node) ->
      owner.(n.Topology.id) <- partition.Partition.owner n.Topology.id)
    (Topology.nodes topo);
  let t =
    {
      mc_topo = topo;
      partition;
      barrier;
      ctxs;
      owner;
      speakers = Hashtbl.create 64;
      processes = Hashtbl.create 64;
      tables = Array.init (Topology.n_nodes topo) (fun _ -> Fwd.create ());
      originated = Hashtbl.create 64;
      prefixes = [];
      sessions = [];
      session_by_site = Hashtbl.create 64;
    }
  in
  (* Speakers, each on its owner shard's scheduler. *)
  List.iter
    (fun (n : Topology.node) ->
      if is_speaker_node n then begin
        let ctx = ctxs.(owner.(n.Topology.id)) in
        let sched = Shard.sched ctx.shard in
        let networks = originate n.Topology.id in
        Hashtbl.replace t.originated n.Topology.id networks;
        t.prefixes <- networks @ t.prefixes;
        let router_id =
          match n.Topology.ip with
          | Some ip -> ip
          | None -> synth_router_id n.Topology.id
        in
        let proc = Process.create sched ~name:("bgp-" ^ n.Topology.name) in
        let config =
          {
            (Speaker.default_config ~asn:(asn_base + n.Topology.id) ~router_id) with
            Speaker.hold_time;
            mrai;
            networks;
          }
        in
        let speaker = Speaker.create ~trace:ctx.sh_trace proc config in
        Hashtbl.replace t.speakers n.Topology.id speaker;
        Hashtbl.replace t.processes n.Topology.id proc;
        ctx.sh_speakers <- (n.Topology.id, speaker) :: ctx.sh_speakers
      end)
    (Topology.nodes topo);
  Array.iter
    (fun ctx ->
      ctx.sh_speakers <-
        List.sort (fun (a, _) (b, _) -> Int.compare a b) ctx.sh_speakers)
    ctxs;
  t.prefixes <- List.sort_uniq Prefix.compare t.prefixes;
  (* Sessions, one per inter-speaker duplex pair. Same-shard pairs get
     an ordinary CM channel; pairs straddling the cut get a split
     channel whose deliveries ride the barrier mailboxes. *)
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
      if l.Topology.link_id < l.Topology.peer then
        match
          ( Hashtbl.find_opt t.speakers l.Topology.src,
            Hashtbl.find_opt t.speakers l.Topology.dst )
        with
        | Some speaker_a, Some speaker_b ->
            let sa = owner.(l.Topology.src) and sb = owner.(l.Topology.dst) in
            let name =
              Printf.sprintf "bgp %s<->%s"
                (node_name t l.Topology.src)
                (node_name t l.Topology.dst)
            in
            let proc_a = Hashtbl.find t.processes l.Topology.src in
            let proc_b = Hashtbl.find t.processes l.Topology.dst in
            let channel =
              if sa = sb then
                Connection_manager.control_channel ~latency ~name
                  ~owner_a:proc_a ~owner_b:proc_b ctxs.(sa).sh_cm
              else
                Connection_manager.cross_channel ~latency ~name
                  ~cm_a:ctxs.(sa).sh_cm ~cm_b:ctxs.(sb).sh_cm
                  ~post_to_b:(Barrier.post barrier ~src:sa ~dst:sb)
                  ~post_to_a:(Barrier.post barrier ~src:sb ~dst:sa)
                  ~owner_a:proc_a ~owner_b:proc_b ()
            in
            let ep_a, ep_b = Channel.endpoints channel in
            let peer_at_a =
              Speaker.add_peer speaker_a ~remote_asn:(Speaker.asn speaker_b)
                ep_a
            in
            let peer_at_b =
              Speaker.add_peer speaker_b ~remote_asn:(Speaker.asn speaker_a)
                ep_b
            in
            ctxs.(sa).sh_peer_slots <- ctxs.(sa).sh_peer_slots + 1;
            ctxs.(sb).sh_peer_slots <- ctxs.(sb).sh_peer_slots + 1;
            Hashtbl.replace (peer_links_of l.Topology.src) peer_at_a
              l.Topology.link_id;
            Hashtbl.replace (peer_links_of l.Topology.dst) peer_at_b
              l.Topology.peer;
            let session =
              {
                node_a = l.Topology.src;
                node_b = l.Topology.dst;
                shard_a = sa;
                shard_b = sb;
                peer_at_a;
                peer_at_b;
                channel;
                session_name = name;
              }
            in
            t.sessions <- session :: t.sessions;
            Hashtbl.replace t.session_by_site
              (site_key
                 (node_name t l.Topology.src)
                 (node_name t l.Topology.dst))
              session
        | None, _ | _, None -> ())
    (Topology.links topo);
  (* FIB wiring, per shard in node order. *)
  Array.iter
    (fun ctx ->
      List.iter
        (fun (node, speaker) ->
          let links = peer_links_of node in
          Speaker.on_loc_rib_change speaker (fun prefix routes ->
              install_fib t ctx node links prefix routes))
        ctx.sh_speakers)
    ctxs;
  (* Static routes, identical to Routed_fabric. *)
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
        | [] | _ :: _ -> invalid_arg "Multicore.build: hosts must have degree 1")
    (Topology.nodes topo);
  t

(* --- convergence ----------------------------------------------------- *)

(* A shard is FIB-complete when every speaker it owns resolves every
   global prefix — purely shard-local state, so each shard samples its
   own flag on its own scheduler. The global convergence time is the
   max of the per-shard latch times. *)
let shard_fibs_complete t ctx =
  List.for_all
    (fun (node, _speaker) ->
      let own = Option.value (Hashtbl.find_opt t.originated node) ~default:[] in
      List.for_all
        (fun prefix ->
          List.exists (Prefix.equal prefix) own
          || Option.is_some (Fwd.lookup t.tables.(node) (Prefix.network prefix)))
        t.prefixes)
    ctx.sh_speakers

let shard_sessions_up ctx =
  List.fold_left
    (fun acc (_, speaker) -> acc + Speaker.established_count speaker)
    0 ctx.sh_speakers
  = ctx.sh_peer_slots

let arm_convergence_checkers ?(check_every = Time.of_ms 50) t =
  Array.iter
    (fun ctx ->
      let sched = Shard.sched ctx.shard in
      let recurring = ref None in
      let check () =
        if ctx.sh_converged_at = None && shard_fibs_complete t ctx then begin
          ctx.sh_converged_at <- Some (Sched.now sched);
          Registry.Gauge.set
            (Registry.gauge (Sched.registry sched) ~subsystem:"bgp"
               ~help:"Virtual time at which the fabric converged, seconds"
               "convergence_seconds")
            (Time.to_sec (Sched.now sched));
          Option.iter Sched.cancel_recurring !recurring
        end
      in
      recurring := Some (Sched.every sched check_every check))
    t.ctxs

let converged_at t =
  Array.fold_left
    (fun acc ctx ->
      match (acc, ctx.sh_converged_at) with
      | Some a, Some b -> Some (Time.max a b)
      | _, None | None, _ -> None)
    (Some Time.zero) t.ctxs

(* --- faults ---------------------------------------------------------- *)

let find_session t ~a ~b = Hashtbl.find_opt t.session_by_site (site_key a b)

(* All fault application for a session happens on its owner shard
   (shard_a); effects on the other side travel through the barrier
   like any other cross-shard event. *)

let fail_session t session =
  ignore t;
  if Channel.is_open session.channel then begin
    (if Channel.is_split session.channel then
       let ep_a, _ = Channel.endpoints session.channel in
       Channel.close_endpoint ep_a
     else Channel.close session.channel);
    true
  end
  else false

let restore_session t session =
  let ep_a_open =
    let ep_a, _ = Channel.endpoints session.channel in
    Channel.endpoint_open ep_a
  in
  if ep_a_open then false
  else
    match
      ( Hashtbl.find_opt t.speakers session.node_a,
        Hashtbl.find_opt t.speakers session.node_b )
    with
    | Some speaker_a, Some speaker_b ->
        let sa = session.shard_a and sb = session.shard_b in
        let ctx_a = t.ctxs.(sa) and ctx_b = t.ctxs.(sb) in
        let proc_a = Hashtbl.find t.processes session.node_a in
        let proc_b = Hashtbl.find t.processes session.node_b in
        if sa = sb then begin
          let channel =
            Connection_manager.control_channel ~name:session.session_name
              ~owner_a:proc_a ~owner_b:proc_b ctx_a.sh_cm
          in
          let ep_a, ep_b = Channel.endpoints channel in
          Speaker.replace_peer_endpoint speaker_a session.peer_at_a ep_a;
          Speaker.replace_peer_endpoint speaker_b session.peer_at_b ep_b;
          session.channel <- channel;
          Speaker.start_peer speaker_a session.peer_at_a;
          Speaker.start_peer speaker_b session.peer_at_b;
          true
        end
        else begin
          (* Runs on shard_a's domain: wire our side now, ship the
             peer side's wiring through the barrier. The peer comes up
             one epoch later — deterministically — and any OPEN sent
             from this side arrives after the peer's wiring, because
             delivery takes >= one quantum and the wiring thunk is
             drained at the very next barrier. *)
          let channel =
            Channel.create_split
              ~sched_a:(Shard.sched ctx_a.shard)
              ~sched_b:(Shard.sched ctx_b.shard)
              ~post_to_b:(Barrier.post t.barrier ~src:sa ~dst:sb)
              ~post_to_a:(Barrier.post t.barrier ~src:sb ~dst:sa)
              ()
          in
          let ep_a, ep_b = Channel.endpoints channel in
          Connection_manager.wire_endpoint ~name:session.session_name
            ~owner:proc_a ctx_a.sh_cm ep_a;
          Speaker.replace_peer_endpoint speaker_a session.peer_at_a ep_a;
          session.channel <- channel;
          Speaker.start_peer speaker_a session.peer_at_a;
          Barrier.post t.barrier ~src:sa ~dst:sb
            ~at:(Sched.now (Shard.sched ctx_a.shard))
            (fun () ->
              Sched.control_activity ~reason:"cross-shard link-up"
                (Shard.sched ctx_b.shard);
              Connection_manager.wire_endpoint ~name:session.session_name
                ~owner:proc_b ctx_b.sh_cm ep_b;
              Speaker.replace_peer_endpoint speaker_b session.peer_at_b ep_b;
              Speaker.start_peer speaker_b session.peer_at_b);
          true
        end
    | None, _ | _, None -> false

let impair_session t session ~rng imp =
  if Channel.is_split session.channel then begin
    let ep_a, ep_b = Channel.endpoints session.channel in
    (* Our direction draws from the site stream; the peer direction
       gets a sub-stream derived once, here, on our domain — the Rng
       value crosses the barrier exactly once and is owned by the peer
       afterwards. *)
    let remote_rng = Rng.split_key rng "peer-direction" in
    Channel.set_endpoint_impairment ep_a ~rng imp;
    Barrier.post t.barrier ~src:session.shard_a ~dst:session.shard_b
      ~at:(Sched.now (Shard.sched t.ctxs.(session.shard_a).shard))
      (fun () -> Channel.set_endpoint_impairment ep_b ~rng:remote_rng imp);
    true
  end
  else begin
    (match imp with
    | Some imp -> Channel.set_impairment session.channel ~rng imp
    | None -> Channel.clear_impairment session.channel);
    true
  end

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

let reset_session t session =
  match Hashtbl.find_opt t.speakers session.node_a with
  | Some speaker ->
      Speaker.reset_session speaker session.peer_at_a;
      true
  | None -> false

let node_id t name =
  Option.map
    (fun (n : Topology.node) -> n.Topology.id)
    (Topology.node_by_name t.mc_topo name)

(* The fault target shard [s] arms its slice of the plan against: only
   sessions owned by [s] and nodes living on [s] apply; anything else
   reports false (and would indicate a plan-splitting bug, since
   [split_plan] routes every event to its owner). *)
let shard_target t s =
  let owned_session ~a ~b =
    match find_session t ~a ~b with
    | Some session when session.shard_a = s -> Some session
    | Some _ | None -> None
  in
  let owned_node name =
    match node_id t name with
    | Some id when t.owner.(id) = s -> Some id
    | Some _ | None -> None
  in
  {
    Horse_faults.Injector.describe =
      "multicore/" ^ Partition.shard_name t.partition s;
    link_down =
      (fun ~a ~b ->
        match owned_session ~a ~b with
        | Some session -> fail_session t session
        | None -> false);
    link_up =
      (fun ~a ~b ->
        match owned_session ~a ~b with
        | Some session -> restore_session t session
        | None -> false);
    node_crash =
      (fun n -> match owned_node n with Some id -> crash_node t id | None -> false);
    node_restart =
      (fun n ->
        match owned_node n with Some id -> restart_node t id | None -> false);
    session_reset =
      (fun ~a ~b ->
        match owned_session ~a ~b with
        | Some session -> reset_session t session
        | None -> false);
    impair =
      (fun ~a ~b ~rng imp ->
        match owned_session ~a ~b with
        | Some session -> impair_session t session ~rng imp
        | None -> false);
    links =
      (fun () ->
        List.filter_map
          (fun session ->
            if session.shard_a = s then
              Some (node_name t session.node_a, node_name t session.node_b)
            else None)
          (List.rev t.sessions));
    converged =
      (fun () ->
        let ctx = t.ctxs.(s) in
        shard_sessions_up ctx && shard_fibs_complete t ctx);
  }

(* Split a plan into per-shard plans. Every event keeps its timestamp
   and its site-keyed RNG streams (the plan seed is copied into every
   slice, and Injector derives streams per site label), so the union
   of the per-shard injections equals the unsharded plan's — only
   attributed to the shard that owns each site. Partition/Heal are
   expanded here, statically, against the full session list, because
   no single shard can see the whole cut. *)
let split_plan t (plan : Horse_faults.Plan.t) =
  let module P = Horse_faults.Plan in
  let n = Array.length t.ctxs in
  let events = Array.make n [] in
  let generators = Array.make n [] in
  let shard_of_site (s : P.site) =
    match find_session t ~a:s.P.a ~b:s.P.b with
    | Some session -> Some session.shard_a
    | None -> None
  in
  let shard_of_node name =
    Option.map (fun id -> t.owner.(id)) (node_id t name)
  in
  let add_event s ev = events.(s) <- ev :: events.(s) in
  let crossing group =
    let in_group name = List.mem name group in
    List.filter_map
      (fun session ->
        let a = node_name t session.node_a and b = node_name t session.node_b in
        if in_group a <> in_group b then Some (session, a, b) else None)
      (List.rev t.sessions)
  in
  List.iter
    (fun (ev : P.event) ->
      match ev.P.action with
      | P.Link_down s | P.Link_up s | P.Session_reset s
      | P.Impair (s, _) | P.Clear_impair s -> (
          match shard_of_site s with
          | Some sh -> add_event sh ev
          (* Unknown site: hand it to shard 0 so it is recorded as
             skipped, exactly as the unsharded injector would. *)
          | None -> add_event 0 ev)
      | P.Node_crash name | P.Node_restart name -> (
          match shard_of_node name with
          | Some sh -> add_event sh ev
          | None -> add_event 0 ev)
      | P.Partition group ->
          List.iter
            (fun (session, a, b) ->
              add_event session.shard_a
                { P.at = ev.P.at; action = P.Link_down { P.a; b } })
            (crossing group)
      | P.Heal group ->
          List.iter
            (fun (session, a, b) ->
              add_event session.shard_a
                { P.at = ev.P.at; action = P.Link_up { P.a; b } })
            (crossing group))
    plan.P.events;
  List.iter
    (fun (g : P.generator) ->
      let sh =
        match shard_of_site g.P.g_site with Some sh -> sh | None -> 0
      in
      generators.(sh) <- g :: generators.(sh))
    plan.P.generators;
  Array.init n (fun s ->
      {
        P.seed = plan.P.seed;
        events = List.rev events.(s);
        generators = List.rev generators.(s);
      })

let arm_faults ?check_every t plan =
  let slices = split_plan t plan in
  Array.iteri
    (fun s ctx ->
      ctx.sh_injector <-
        Some
          (Horse_faults.Injector.arm ?check_every (Shard.sched ctx.shard)
             ~target:(shard_target t s) slices.(s)))
    t.ctxs

(* --- running --------------------------------------------------------- *)

let start t =
  Array.iter
    (fun ctx ->
      let sched = Shard.sched ctx.shard in
      List.iter
        (fun (_, speaker) ->
          ignore
            (Sched.schedule_at sched Time.zero (fun () ->
                 Speaker.start speaker)))
        ctx.sh_speakers)
    t.ctxs

let run ?(domains = 1) ~until t = Barrier.run ~domains ~until t.barrier

(* --- merged views ---------------------------------------------------- *)

let topo t = t.mc_topo
let n_shards t = Array.length t.ctxs
let barrier t = t.barrier
let shard_sched t i = Shard.sched t.ctxs.(i).shard
let table t node = t.tables.(node)
let all_prefixes t = t.prefixes

let speakers t =
  Hashtbl.fold (fun node speaker acc -> (node, speaker) :: acc) t.speakers []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let sessions_expected t = List.length t.sessions

let sessions_established t =
  Array.fold_left
    (fun acc ctx ->
      List.fold_left
        (fun acc (_, speaker) -> acc + Speaker.established_count speaker)
        acc ctx.sh_speakers)
    0 t.ctxs
  / 2

let fib_routes_installed t =
  Array.fold_left (fun acc ctx -> acc + ctx.sh_fib_writes) 0 t.ctxs

let is_converged t =
  Array.for_all (fun ctx -> shard_fibs_complete t ctx) t.ctxs

(* Byte-compatible with Routed_fabric.fib_fingerprint: the per-shard
   tables are indexed by global node id, so the digest input is
   literally the same string an unsharded run would produce. *)
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

(* One digest over the per-shard causal hashes, in shard order. Each
   shard's graph is deterministic on its own; concatenating in
   partition order makes the combined hash deterministic too, without
   pretending there is a global creation order across shards. *)
let causal_hash t =
  let buf = Buffer.create 256 in
  Array.iter
    (fun ctx ->
      (match Sched.causal (Shard.sched ctx.shard) with
      | Some g -> Buffer.add_string buf (Causal.hash g)
      | None -> Buffer.add_string buf "-");
      Buffer.add_char buf '\n')
    t.ctxs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Wall time never enters: (at_us, from, to, reason) per transition,
   per shard — the replay-comparable timeline. *)
let mode_timelines t =
  Array.map
    (fun ctx ->
      List.map
        (fun (tr : Sched.transition) ->
          ( Time.to_us tr.Sched.at,
            Sched.mode_to_string tr.Sched.from_mode,
            Sched.mode_to_string tr.Sched.to_mode,
            tr.Sched.reason ))
        (Sched.snapshot (Shard.sched ctx.shard)).Sched.transitions)
    t.ctxs

let fault_traces t =
  Array.map
    (fun ctx ->
      match ctx.sh_injector with
      | Some inj -> Horse_faults.Injector.trace_labels inj
      | None -> [])
    t.ctxs

let faults_injected t =
  Array.fold_left
    (fun acc ctx ->
      acc
      + match ctx.sh_injector with
        | Some inj -> Horse_faults.Injector.injected inj
        | None -> 0)
    0 t.ctxs

let faults_skipped t =
  Array.fold_left
    (fun acc ctx ->
      acc
      + match ctx.sh_injector with
        | Some inj -> Horse_faults.Injector.skipped inj
        | None -> 0)
    0 t.ctxs

let control_messages t =
  Array.fold_left
    (fun acc ctx -> acc + Connection_manager.messages_observed ctx.sh_cm)
    0 t.ctxs

let control_bytes t =
  Array.fold_left
    (fun acc ctx -> acc + Connection_manager.bytes_observed ctx.sh_cm)
    0 t.ctxs

let merged_registry t =
  let merged = Registry.create () in
  Array.iter
    (fun ctx -> Registry.merge_into merged (Shard.registry ctx.shard))
    t.ctxs;
  merged

(* Per-BGP-prefix provenance, merged across shards and sorted exactly
   like Routed_fabric.fib_provenance. Causal ids are only meaningful
   against their own shard's graph, so each entry carries its shard
   index. *)
let fib_provenance t =
  let entries =
    Array.to_list t.ctxs
    |> List.concat_map (fun ctx ->
           List.concat_map
             (fun (node, _speaker) ->
               let own =
                 Option.value (Hashtbl.find_opt t.originated node) ~default:[]
               in
               List.filter_map
                 (fun prefix ->
                   if List.exists (Prefix.equal prefix) own then None
                   else if
                     Option.is_some
                       (Fwd.lookup t.tables.(node) (Prefix.network prefix))
                   then
                     let cause =
                       Option.value
                         (Hashtbl.find_opt ctx.sh_fib_prov (node, prefix))
                         ~default:Causal.none
                     in
                     Some
                       ( node_name t node,
                         prefix,
                         Shard.index ctx.shard,
                         cause )
                   else None)
                 t.prefixes)
             ctx.sh_speakers)
  in
  List.sort
    (fun (n1, p1, _, _) (n2, p2, _, _) ->
      match String.compare n1 n2 with
      | 0 -> Prefix.compare p1 p2
      | c -> c)
    entries

(* --- the canned scenario --------------------------------------------- *)

type result = {
  pods : int;
  domains : int;
  shards : int;
  partition_name : string;
  setup_wall_s : float;
  run_wall_s : float;
  epochs : int;
  jumps : int;
  cross_messages : int;
  converged_at : Time.t option;
  fib_fingerprint : string;
  causal_hash : string;
  timelines : (int * string * string * string) list array;
  fault_trace : string list array;
  faults_injected : int;
  faults_skipped : int;
  control_messages : int;
  control_bytes : int;
  fib_writes : int;
  sessions_up : int;
  sessions_total : int;
  registry : Registry.t;
}

(* The BGP fat-tree convergence experiment of Scenario.run_fat_tree_te
   (Bgp_ecmp), sharded. No fluid data plane in the sharded runner —
   the multicore engine targets control-plane scale; the satellites'
   differential tests pin its results to the sequential run. *)
let run_fat_tree ?(seed = 42) ?sched_config ?shards ?(domains = 1) ?faults
    ~pods ~duration () =
  let (t, ft), setup_wall_s =
    Wall.time (fun () ->
        let ft = Fat_tree.build ~k:pods () in
        let partition = Partition.fat_tree_pods ?shards ft in
        let edge_prefix = Hashtbl.create 64 in
        Array.iteri
          (fun pod edges ->
            Array.iteri
              (fun e (edge : Topology.node) ->
                Hashtbl.replace edge_prefix edge.Topology.id
                  [ Prefix.make (Ipv4.of_octets 10 pod e 0) 24 ])
              edges)
          ft.Fat_tree.edges;
        let t =
          build ?sched_config ~seed ~partition
            ~originate:(fun node ->
              Option.value (Hashtbl.find_opt edge_prefix node) ~default:[])
            ft.Fat_tree.topo
        in
        start t;
        arm_convergence_checkers t;
        (match faults with Some plan -> arm_faults t plan | None -> ());
        (t, ft))
  in
  ignore ft;
  let (), run_wall_s = Wall.time (fun () -> run ~domains ~until:duration t) in
  {
    pods;
    domains;
    shards = n_shards t;
    partition_name = t.partition.Partition.name;
    setup_wall_s;
    run_wall_s;
    epochs = Barrier.epochs t.barrier;
    jumps = Barrier.jumps t.barrier;
    cross_messages = Barrier.cross_messages t.barrier;
    converged_at = converged_at t;
    fib_fingerprint = fib_fingerprint t;
    causal_hash = causal_hash t;
    timelines = mode_timelines t;
    fault_trace = fault_traces t;
    faults_injected = faults_injected t;
    faults_skipped = faults_skipped t;
    control_messages = control_messages t;
    control_bytes = control_bytes t;
    fib_writes = fib_routes_installed t;
    sessions_up = sessions_established t;
    sessions_total = sessions_expected t;
    registry = merged_registry t;
  }
