open Horse_net
open Horse_engine
open Horse_topo
open Horse_dataplane
open Horse_emulation
open Horse_openflow
open Horse_controller

type pending = {
  key : Flow_key.t;
  on_ready : Spf.path -> unit;
  asked : (int, unit) Hashtbl.t;  (* dpids already sent a PACKET_IN *)
}

type t = {
  fabric_topo : Topology.t;
  sched : Sched.t;
  fluid : Fluid.t;
  ctrl : Controller.t;
  fabric_env : Env.t;
  agents : (int, Switch.t) Hashtbl.t;  (* node id -> agent *)
  ports : (int, int) Hashtbl.t;  (* directed link id -> port on src *)
  mutable pending : pending list;
  mutable retry_scheduled : bool;
  mutable n_switches : int;
  (* 5-tuple -> newest active flow, rebuilt from the fluid engine
     whenever its flow set changed since the last lookup: flows
     started and flows stopped together stamp that set. *)
  by_key : Flow.t Flow_key.Table.t;
  mutable keys_started : int;
  mutable keys_stopped : int;
  mutable key_rebuilds : int;
}

(* 5-tuple reconstruction from an exact-match entry (as installed by
   the ECMP/Hedera applications), for backing flow statistics with
   fluid-engine byte integrals. *)
let key_of_match (m : Ofmatch.t) =
  match (m.Ofmatch.m_ip_src, m.Ofmatch.m_ip_dst) with
  | Some src_p, Some dst_p
    when Prefix.length src_p = 32 && Prefix.length dst_p = 32 ->
      Some
        (Flow_key.make ~src:(Prefix.network src_p) ~dst:(Prefix.network dst_p)
           ~proto:
             (Headers.Proto.of_int (Option.value m.Ofmatch.m_ip_proto ~default:17))
           ~src_port:(Option.value m.Ofmatch.m_tp_src ~default:0)
           ~dst_port:(Option.value m.Ofmatch.m_tp_dst ~default:0)
           ())
  | Some _, Some _ | None, _ | _, None -> None

let first_frame (key : Flow_key.t) =
  Packet.encode
    (Packet.udp
       ~src_mac:(Mac.of_index (Ipv4.hash key.Flow_key.src land 0xFFFF))
       ~dst_mac:(Mac.of_index (Ipv4.hash key.Flow_key.dst land 0xFFFF))
       ~src:key.Flow_key.src ~dst:key.Flow_key.dst
       ~src_port:key.Flow_key.src_port ~dst_port:key.Flow_key.dst_port
       (Bytes.make 64 '\000'))

(* Walk the flow tables from the source host. [side_effects] controls
   whether misses raise PACKET_INs. *)
let walk t (key : Flow_key.t) ~side_effects ~asked =
  match
    ( Env.host_of_ip t.fabric_env key.Flow_key.src,
      Env.host_of_ip t.fabric_env key.Flow_key.dst )
  with
  | None, _ | _, None -> Error "unknown host address"
  | Some src, Some dst -> (
      match Topology.out_links t.fabric_topo src with
      | [ first ] ->
          let rec step node in_link acc hops =
            if node = dst then Ok (List.rev acc)
            else if hops > 64 then Error "path exceeds 64 hops"
            else
              match Hashtbl.find_opt t.agents node with
              | None -> Error "walk reached a non-switch node"
              | Some agent -> (
                  let in_port =
                    Option.value
                      (Hashtbl.find_opt t.ports (in_link : Topology.link).Topology.peer)
                      ~default:0
                  in
                  let fields = Ofmatch.fields_of_key ~in_port key in
                  let miss reason =
                    if side_effects && not (Hashtbl.mem asked node) then begin
                      Hashtbl.replace asked node ();
                      Switch.packet_in agent ~in_port (first_frame key)
                    end;
                    Error reason
                  in
                  match Switch.lookup agent fields with
                  | None -> miss "table miss"
                  | Some entry -> (
                      let out_port =
                        List.find_map
                          (function
                            | Action.Output p -> Some p
                            | Action.Flood | Action.To_controller _ -> None)
                          entry.Flow_table.actions
                      in
                      match out_port with
                      | None -> Error "entry without an output action"
                      | Some port -> (
                          match Switch.link_of_port agent port with
                          | None ->
                              (* Stale entry towards a down port: let
                                 the controller repair it. *)
                              miss "entry outputs to a down port"
                          | Some link_id ->
                              let link = Topology.link t.fabric_topo link_id in
                              step link.Topology.dst link (link :: acc) (hops + 1))))
          in
          step first.Topology.dst first [ first ] 0
      | [] | _ :: _ -> Error "source host must have degree 1")

let retry_pending t =
  t.retry_scheduled <- false;
  let still =
    List.filter
      (fun p ->
        match walk t p.key ~side_effects:true ~asked:p.asked with
        | Ok path ->
            p.on_ready path;
            false
        | Error _ -> true)
      t.pending
  in
  t.pending <- still

let schedule_retry t =
  if (not t.retry_scheduled) && t.pending <> [] then begin
    t.retry_scheduled <- true;
    ignore (Sched.schedule_after t.sched Time.zero (fun () -> retry_pending t))
  end

(* Stats polls look up every flow-table entry, so a lookup must not
   scan the flows: the table is rebuilt at most once per change of the
   flow set, and ascending-id replace leaves the newest flow of each
   5-tuple. *)
let find_flow t key =
  let stopped = Fluid.completed_flow_count t.fluid in
  let started = Fluid.flow_count t.fluid + stopped in
  if started <> t.keys_started || stopped <> t.keys_stopped then begin
    Flow_key.Table.clear t.by_key;
    List.iter
      (fun (f : Flow.t) -> Flow_key.Table.replace t.by_key f.Flow.key f)
      (Fluid.active_flows t.fluid);
    t.keys_started <- started;
    t.keys_stopped <- stopped;
    t.key_rebuilds <- t.key_rebuilds + 1
  end;
  Flow_key.Table.find_opt t.by_key key

let key_rebuilds t = t.key_rebuilds

(* Latency of every controller-switch channel. *)
let channel_latency = Time.of_ms 1

let build ~cm ~fluid topo =
  let sched = Connection_manager.scheduler cm in
  let trace = Connection_manager.trace cm in
  let ctrl_proc = Process.create sched in
  let ctrl = Controller.create ~trace ctrl_proc in
  let t =
    {
      fabric_topo = topo;
      sched;
      fluid;
      ctrl;
      fabric_env =
        Env.create ~topo
          ~dpid_of_node:(fun node ->
            match Topology.node topo node with
            | { Topology.kind = Topology.Switch; _ } -> Some node
            | { Topology.kind = Topology.Host | Topology.Router; _ } -> None)
          ~node_of_dpid:(fun dpid ->
            if dpid >= 0 && dpid < Topology.n_nodes topo then Some dpid else None)
          ~port_of_link:(fun _ -> None) (* replaced below *)
          ();
      agents = Hashtbl.create 64;
      ports = Hashtbl.create 256;
      pending = [];
      retry_scheduled = false;
      n_switches = 0;
      by_key = Flow_key.Table.create 256;
      keys_started = -1;
      keys_stopped = -1;
      key_rebuilds = 0;
    }
  in
  (* Port numbering: the i-th out-link of a switch is port i+1. *)
  List.iter
    (fun (n : Topology.node) ->
      if n.Topology.kind = Topology.Switch then
        List.iteri
          (fun i (l : Topology.link) ->
            Hashtbl.replace t.ports l.Topology.link_id (i + 1))
          (Topology.out_links topo n.Topology.id))
    (Topology.nodes topo);
  let env =
    Env.create ~topo
      ~dpid_of_node:(fun node ->
        match (Topology.node topo node).Topology.kind with
        | Topology.Switch -> Some node
        | Topology.Host | Topology.Router -> None)
      ~node_of_dpid:(fun dpid ->
        if dpid >= 0 && dpid < Topology.n_nodes topo then Some dpid else None)
      ~port_of_link:(fun link_id -> Hashtbl.find_opt t.ports link_id)
      ()
  in
  let t = { t with fabric_env = env } in
  (* Agents and control channels. *)
  List.iter
    (fun (n : Topology.node) ->
      if n.Topology.kind = Topology.Switch then begin
        t.n_switches <- t.n_switches + 1;
        let proc = Process.create sched in
        let channel =
          Connection_manager.control_channel ~latency:channel_latency
            ~name:("openflow " ^ n.Topology.name) cm
        in
        let switch_end, ctrl_end = Channel.endpoints channel in
        let ports =
          List.mapi
            (fun i (l : Topology.link) -> (i + 1, l.Topology.link_id))
            (Topology.out_links topo n.Topology.id)
        in
        let agent =
          Switch.create ~trace proc ~dpid:n.Topology.id ~ports
            switch_end
        in
        Hashtbl.replace t.agents n.Topology.id agent;
        (* Flow statistics backed by the fluid engine. *)
        Switch.set_flow_stats_provider agent (fun entry ->
            match key_of_match entry.Flow_table.match_ with
            | None -> (entry.Flow_table.packets, entry.Flow_table.bytes)
            | Some key -> (
                match find_flow t key with
                | None -> (entry.Flow_table.packets, entry.Flow_table.bytes)
                | Some flow ->
                    let bytes =
                      int_of_float (Fluid.delivered_bits fluid flow /. 8.0)
                    in
                    (bytes / 1500, bytes)));
        Switch.on_flow_mod agent (fun _fm -> schedule_retry t);
        Switch.on_packet_out agent (fun _po -> schedule_retry t);
        Switch.start agent;
        Controller.connect ctrl ctrl_end
      end)
    (Topology.nodes topo);
  t

let controller t = t.ctrl
let env t = t.fabric_env

let route_flow t key ~on_ready =
  let asked = Hashtbl.create 4 in
  match walk t key ~side_effects:true ~asked with
  | Ok path -> on_ready path
  | Error _ -> t.pending <- { key; on_ready; asked } :: t.pending

let resolve_now t key =
  match walk t key ~side_effects:false ~asked:(Hashtbl.create 1) with
  | Ok path -> Some path
  | Error _ -> None

let pending_flows t = List.length t.pending

let packet_ins t =
  Hashtbl.fold (fun _ agent acc -> acc + Switch.packet_ins_sent agent) t.agents 0

let handshaken t = List.length (Controller.switches t.ctrl) = t.n_switches

(* Take the duplex link between two adjacent switches administratively
   down (or up): the agents raise PORT_STATUS and the applications
   reroute around it. *)
let set_link t ~a ~b ~up =
  match Topology.find_link t.fabric_topo ~src:a ~dst:b with
  | None -> false
  | Some fwd -> (
      let rev = Topology.link t.fabric_topo fwd.Topology.peer in
      match (Hashtbl.find_opt t.agents a, Hashtbl.find_opt t.agents b) with
      | Some agent_a, Some agent_b -> (
          match
            ( Switch.port_of_link agent_a fwd.Topology.link_id,
              Switch.port_of_link agent_b rev.Topology.link_id )
          with
          | Some port_a, Some port_b ->
              if up then begin
                Switch.set_port_up agent_a port_a;
                Switch.set_port_up agent_b port_b
              end
              else begin
                Switch.set_port_down agent_a port_a;
                Switch.set_port_down agent_b port_b
              end;
              true
          | None, _ | _, None -> false)
      | None, _ | _, None -> false)

let fail_link t ~a ~b = set_link t ~a ~b ~up:false
let restore_link t ~a ~b = set_link t ~a ~b ~up:true

(* Link up/down is the whole fault surface: crashes, session resets
   and impairments report [false] and are recorded as skipped. *)
let fault_target t =
  let link f ~a ~b =
    match (Topology.node_by_name t.fabric_topo a, Topology.node_by_name t.fabric_topo b) with
    | Some a, Some b -> f t ~a:a.Topology.id ~b:b.Topology.id
    | None, _ | _, None -> false
  in
  {
    Horse_faults.Injector.describe = "sdn-fabric";
    link_down = link fail_link;
    link_up = link restore_link;
    node_crash = (fun _ -> false);
    node_restart = (fun _ -> false);
    session_reset = (fun ~a:_ ~b:_ -> false);
    impair = (fun ~a:_ ~b:_ ~rng:_ _ -> false);
    links = (fun () -> Topology.switch_links t.fabric_topo);
    converged = (fun () -> pending_flows t = 0);
  }
