open Horse_engine
open Horse_topo
open Horse_ospf
open Routed_core

type t = Daemon.t fabric

(* A routing-table install's payload: [Causal.pair node route_count].
   Its printer names the node through the topology, so the kind is
   registered on the run's graph, not program-wide. *)
let fib_write_detail topo a =
  Printf.sprintf "%s (%d routes)"
    (Topology.node topo (Causal.pair_hi a)).Topology.name
    (Causal.pair_lo a)

(* Replace a node's OSPF-learned routes ([installed]) with a fresh
   table, leaving the static host routes alone. *)
let install_routes t node daemon installed (routes : Lsdb.route list) =
  fib_update t (Causal.pair node (List.length routes)) (fun () ->
      List.iter (fun prefix -> write t node prefix []) !installed;
      installed := [];
      List.iter
        (fun (route : Lsdb.route) ->
          let next_hops =
            List.filter_map
              (fun rid ->
                Option.bind (Daemon.interface_of_neighbor daemon rid) (link_of t node))
              route.Lsdb.next_hops
          in
          if next_hops <> [] then begin
            write t node route.Lsdb.prefix next_hops;
            installed := route.Lsdb.prefix :: !installed
          end)
        routes)

let build ~cm ~originate topo =
  let t =
    Routed_core.build ~cm
      {
        name = "ospf";
        describe = "ospf-fabric";
        router_id_net = 254;
        fib_detail = fib_write_detail;
        create =
          (fun proc (n : Topology.node) ~router_id ->
            let stubs = originate n.Topology.id in
            let config =
              { (Daemon.default_config ~router_id) with Daemon.stub_prefixes = stubs }
            in
            ( Daemon.create ~trace:(Connection_manager.trace cm) proc config,
              List.map fst stubs ));
        attach = (fun daemon ~remote:_ ep -> Daemon.add_interface daemon ep);
        rebind = Daemon.rebind_interface;
        resume = (fun _ _ -> ());
        reset = None;
        established = Daemon.full_neighbors;
        start = Daemon.start;
      }
      topo
  in
  List.iter
    (fun (node, daemon) ->
      Daemon.on_routes_change daemon (install_routes t node daemon (ref [])))
    (daemons t);
  t
