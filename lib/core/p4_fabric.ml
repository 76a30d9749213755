open Horse_net
open Horse_engine
open Horse_topo
open Horse_emulation
open Horse_p4

type sw = {
  agent : Agent.t;
  ctrl_end : Channel.endpoint;  (* controller side of the runtime channel *)
}

type t = {
  fabric_topo : Topology.t;
  ctrl_proc : Process.t;
  switches : (int, sw) Hashtbl.t;  (* node id -> switch *)
  pending : (int, int -> unit) Hashtbl.t;  (* xid -> counter callback *)
  mutable next_xid : int;
  sent : int ref;
  acks : int ref;
  mutable nacks : int;
  programmed : Latch.t;  (* every insert acknowledged *)
}

let all_acked ~sent ~acks = !sent > 0 && !acks = !sent

let fresh_xid t =
  let xid = t.next_xid in
  t.next_xid <- t.next_xid + 1;
  xid

let on_response t bytes =
  match Runtime.decode_response bytes with
  | Error _ -> ()
  | Ok (xid, resp) -> (
      match resp with
      | Runtime.Ack ->
          incr t.acks;
          Latch.poke t.programmed
      | Runtime.Nack _ -> t.nacks <- t.nacks + 1
      | Runtime.Counter_value (_, v) -> (
          match Hashtbl.find_opt t.pending xid with
          | Some k ->
              Hashtbl.remove t.pending xid;
              k v
          | None -> ()))

(* Every switch runs the ECMP router pipeline. *)
let program = Prog.ecmp_router

let build ~cm topo =
  match Prog.validate program with
  | Error _ as e -> e
  | Ok () ->
      let sched = Connection_manager.scheduler cm in
      let sent = ref 0 and acks = ref 0 in
      let trace = Connection_manager.trace cm in
      let ctrl_proc = Process.create sched ~name:"p4-controller" in
      let t =
        {
          fabric_topo = topo;
          ctrl_proc;
          switches = Hashtbl.create 64;
          pending = Hashtbl.create 64;
          next_xid = 1;
          sent;
          acks;
          nacks = 0;
          programmed = Latch.create sched (fun () -> all_acked ~sent ~acks);
        }
      in
      let build_error = ref None in
      List.iter
        (fun (n : Topology.node) ->
          if n.Topology.kind = Topology.Switch then begin
            let proc = Process.create sched ~name:("p4-" ^ n.Topology.name) in
            let channel =
              Connection_manager.control_channel
                ~name:("p4runtime " ^ n.Topology.name) cm
            in
            let sw_end, ctrl_end = Channel.endpoints channel in
            let ports =
              List.mapi
                (fun i (l : Topology.link) -> (i + 1, l.Topology.link_id))
                (Topology.out_links topo n.Topology.id)
            in
            match Agent.create ~trace proc ~program ~ports sw_end with
            | Ok agent ->
                Channel.set_receiver ctrl_end (fun bytes -> on_response t bytes);
                Hashtbl.replace t.switches n.Topology.id { agent; ctrl_end }
            | Error msg -> build_error := Some msg
          end)
        (Topology.nodes topo);
      (match !build_error with Some msg -> Error msg | None -> Ok t)

let send_insert t sw entry =
  incr t.sent;
  Channel.send sw.ctrl_end
    (Runtime.encode_request ~xid:(fresh_xid t) (Runtime.Insert entry))

let ip_int a = Int32.to_int (Ipv4.to_int32 a) land 0xFFFFFFFF

(* Shortest-path ECMP entries towards every host, per switch. For a
   single next hop, a plain LPM forward; for several, an LPM
   [set_group] plus one [ecmp_select] member entry per port. *)
let program_routes t =
  let topo = t.fabric_topo in
  let next_gid = ref 1 in
  List.iter
    (fun (h : Topology.node) ->
      match (h.Topology.kind, h.Topology.ip) with
      | Topology.Host, Some dst_ip ->
          let tree = Spf.shortest_tree topo ~src:h.Topology.id in
          Hashtbl.iter
            (fun node sw ->
              let dist v =
                match Spf.distance tree v with Some d -> d | None -> max_int
              in
              let my_dist = dist node in
              if my_dist < max_int && my_dist > 0 then begin
                let ports =
                  List.filter_map
                    (fun (l : Topology.link) ->
                      if dist l.Topology.dst = my_dist - 1 then
                        Agent.port_of_link sw.agent l.Topology.link_id
                      else None)
                    (Topology.out_links topo node)
                in
                let lpm_key = [ Interp.K_lpm (ip_int dst_ip, 32) ] in
                match ports with
                | [] -> ()
                | [ port ] ->
                    send_insert t sw
                      {
                        Interp.e_table = "ipv4_lpm";
                        key = lpm_key;
                        priority = 0;
                        action = "forward";
                        args = [ port ];
                      }
                | _ :: _ :: _ ->
                    let gid = !next_gid in
                    incr next_gid;
                    let size = List.length ports in
                    send_insert t sw
                      {
                        Interp.e_table = "ipv4_lpm";
                        key = lpm_key;
                        priority = 0;
                        action = "set_group";
                        args = [ gid; size ];
                      };
                    List.iteri
                      (fun member port ->
                        send_insert t sw
                          {
                            Interp.e_table = "ecmp_select";
                            key = [ Interp.K_exact gid; Interp.K_exact member ];
                            priority = 0;
                            action = "forward";
                            args = [ port ];
                          })
                      ports
              end)
            t.switches
      | (Topology.Host | Topology.Switch | Topology.Router), _ -> ())
    (Topology.nodes topo)

let entries_sent t = !(t.sent)
let nacks_received t = t.nacks
let programmed t = all_acked ~sent:t.sent ~acks:t.acks
let when_programmed t k = Latch.on t.programmed k

let fields_of_key (key : Flow_key.t) =
  [
    ("dst", ip_int key.Flow_key.dst);
    ("src", ip_int key.Flow_key.src);
    ("sport", key.Flow_key.src_port);
    ("dport", key.Flow_key.dst_port);
    ("proto", Headers.Proto.to_int key.Flow_key.proto);
  ]

let path_for t (key : Flow_key.t) =
  match Topology.node_by_ip t.fabric_topo key.Flow_key.src with
  | None -> Error "unknown source address"
  | Some src -> (
      match Topology.out_links t.fabric_topo src.Topology.id with
      | [ first ] ->
          let fields = fields_of_key key in
          let rec walk node acc hops =
            let n = Topology.node t.fabric_topo node in
            match n.Topology.ip with
            | Some ip when Ipv4.equal ip key.Flow_key.dst -> Ok (List.rev acc)
            | Some _ | None -> (
                if hops > 64 then Error "path exceeds 64 hops"
                else
                  match Hashtbl.find_opt t.switches node with
                  | None -> Error "walk reached a non-switch node"
                  | Some sw -> (
                      match Agent.process sw.agent fields with
                      | Interp.Dropped ->
                          Error
                            (Printf.sprintf "pipeline dropped the packet at %s"
                               n.Topology.name)
                      | Interp.Forwarded port -> (
                          match Agent.link_of_port sw.agent port with
                          | None -> Error "pipeline forwarded to unknown port"
                          | Some link_id ->
                              let link = Topology.link t.fabric_topo link_id in
                              walk link.Topology.dst (link :: acc) (hops + 1))))
          in
          walk first.Topology.dst [ first ] 0
      | [] | _ :: _ -> Error "source host must have degree 1")

let read_counter t ~dpid name k =
  match Hashtbl.find_opt t.switches dpid with
  | None -> ()
  | Some sw ->
      let xid = fresh_xid t in
      Hashtbl.replace t.pending xid k;
      Channel.send sw.ctrl_end
        (Runtime.encode_request ~xid (Runtime.Counter_read name))
