open Horse_net
open Horse_engine
open Horse_topo
open Horse_bgp
include Routed_core

type t = Speaker.t fabric

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

(* Loc-RIB -> FIB: translate each best route's source peer into the
   out-link its session runs over; multipath routes become one ECMP
   group. Locally originated prefixes keep their static routes. *)
let install_fib t node prefix (routes : Rib.route list) =
  let next_hops =
    List.filter_map
      (fun (r : Rib.route) ->
        if r.Rib.peer = Rib.local_peer then None else link_of t node r.Rib.peer)
      routes
  in
  match (routes, next_hops) with
  | _ :: _, [] -> () (* purely local: static routes already cover it *)
  | [], _ | _ :: _, _ :: _ ->
      fib_update t (pack_fib_write ~node prefix) (fun () ->
          write t node prefix next_hops)

(* Node [n]'s speaker has ASN [asn_base + n], from the private range. *)
let asn_base = 64512

let build ?(hold_time = Time.of_sec 9.0) ~cm ~originate topo =
  let t =
    Routed_core.build ~cm
      {
        name = "bgp";
        describe = "routed-fabric";
        router_id_net = 255;
        fib_detail = fib_write_detail;
        create =
          (fun proc (n : Topology.node) ~router_id ->
            let networks = originate n.Topology.id in
            let config =
              {
                (Speaker.default_config ~asn:(asn_base + n.Topology.id) ~router_id) with
                Speaker.hold_time;
                networks;
              }
            in
            (Speaker.create ~trace:(Connection_manager.trace cm) proc config, networks));
        attach =
          (fun speaker ~remote ep ->
            Speaker.add_peer speaker ~remote_asn:(Speaker.asn remote) ep);
        rebind = Speaker.replace_peer_endpoint;
        resume = Speaker.start_peer;
        (* One-sided, like "clear ip bgp" on router [a]'s end: the Cease
           travels to the other side, and both ConnectRetry timers bring
           the session back. *)
        reset = Some Speaker.reset_session;
        established = Speaker.established_count;
        start = Speaker.start;
      }
      topo
  in
  List.iter
    (fun (node, speaker) -> Speaker.on_loc_rib_change speaker (install_fib t node))
    (daemons t);
  t

