open Horse_net
open Horse_engine
open Horse_topo
open Horse_dataplane

type creation_model = {
  per_switch : float;
  per_host : float;
  per_link : float;
  base : float;
}

let default_creation_model =
  { per_switch = 0.30; per_host = 0.12; per_link = 0.025; base = 1.0 }

let creation_seconds m ~n_switches ~n_hosts ~n_links =
  m.base
  +. (m.per_switch *. float_of_int n_switches)
  +. (m.per_host *. float_of_int n_hosts)
  +. (m.per_link *. float_of_int (n_links / 2))

type result = {
  pods : int;
  creation_modeled_s : float;
  creation_real_s : float;
  exec_wall_s : float;
  exec_realtime_s : float;
  virtual_duration : Time.t;
  delivered_bits : float;
  offered_bits : float;
  packets_delivered : int;
  packets_dropped : int;
  hops_processed : int;
}

(* Static converged ECMP routing: hop-count shortest paths toward each
   edge subnet, all equal-cost next hops installed as one group. *)
let install_routes (ft : Fat_tree.t) (engine : Packet_engine.t) =
  let topo = ft.Fat_tree.topo in
  (* Hosts: single default route up their access link. *)
  Array.iter
    (fun (h : Topology.node) ->
      match Topology.out_links topo h.Topology.id with
      | [ up ] ->
          Fwd.set_route
            (Packet_engine.table engine h.Topology.id)
            Prefix.any
            ~next_hops:[ up.Topology.link_id ]
      | [] | _ :: _ -> invalid_arg "baseline: host degree must be 1")
    ft.Fat_tree.hosts;
  (* Host /32 routes at their edge switch. *)
  Array.iter
    (fun (h : Topology.node) ->
      match (Topology.out_links topo h.Topology.id, h.Topology.ip) with
      | [ up ], Some ip ->
          let edge = up.Topology.dst in
          let down = Topology.link topo up.Topology.peer in
          Fwd.set_route
            (Packet_engine.table engine edge)
            (Prefix.host ip)
            ~next_hops:[ down.Topology.link_id ]
      | (_, _) -> ())
    ft.Fat_tree.hosts;
  (* Edge subnets everywhere else, via reverse shortest-path trees. *)
  let subnets = Fat_tree.edge_subnets ft in
  Array.iter
    (Array.iter (fun (edge : Topology.node) ->
         let tree = Spf.shortest_tree topo ~src:edge.Topology.id in
         (* Links symmetric: dist from v to edge = dist from edge to v. *)
         List.iter
           (fun (n : Topology.node) ->
             if n.Topology.kind = Topology.Switch && n.Topology.id <> edge.Topology.id
             then begin
               let dist v =
                 match Spf.distance tree v with Some d -> d | None -> max_int
               in
               let my_dist = dist n.Topology.id in
               let next_hops =
                 List.filter_map
                   (fun (l : Topology.link) ->
                     let nd = dist l.Topology.dst in
                     if nd < max_int && nd = my_dist - 1 then
                       Some l.Topology.link_id
                     else None)
                   (Topology.out_links topo n.Topology.id)
               in
               if next_hops <> [] then
                 List.iter
                   (fun subnet ->
                     Fwd.set_route
                       (Packet_engine.table engine n.Topology.id)
                       subnet ~next_hops)
                   (subnets edge.Topology.id)
             end)
           (Topology.nodes topo)))
    ft.Fat_tree.edges

let run_fat_tree ?(pkt_bytes = 1500)
    ?(rate = 1e9) ?(stack_work = true) ?(seed = 42) ?(contention = 1.2)
    ?realtime_duration ~pods ~duration () =
  let realtime_duration = Option.value realtime_duration ~default:duration in
  let (ft, engine, sched, streams), creation_real_s =
    Wall.time (fun () ->
        let ft = Fat_tree.build ~k:pods () in
        let sched = Sched.create () in
        let engine =
          Packet_engine.create ~stack_work ~hash:Flow_key.hash_5tuple sched
            ft.Fat_tree.topo ()
        in
        install_routes ft engine;
        let n = Array.length ft.Fat_tree.hosts in
        let rng = Rng.create seed in
        let dsts = Rng.derangement rng n in
        let streams =
          Array.to_list
            (Array.mapi
               (fun i (h : Topology.node) ->
                 let key =
                   Flow_key.make
                     ~src:(Fat_tree.host_ip ft i)
                     ~dst:(Fat_tree.host_ip ft dsts.(i))
                     ~src_port:(10000 + i) ~dst_port:(20000 + i) ()
                 in
                 Packet_engine.start_stream engine ~key ~at:h.Topology.id ~rate
                   ~pkt_bytes)
               ft.Fat_tree.hosts)
        in
        (ft, engine, sched, streams))
  in
  let _stats, exec_wall_s = Wall.time (fun () -> Sched.run ~until:duration sched) in
  List.iter (Packet_engine.stop_stream engine) streams;
  let n_hosts = Array.length ft.Fat_tree.hosts in
  {
    pods;
    creation_modeled_s =
      creation_seconds default_creation_model
        ~n_switches:(Fat_tree.n_switches ~k:pods)
        ~n_hosts ~n_links:(Topology.n_links ft.Fat_tree.topo);
    creation_real_s;
    exec_wall_s;
    exec_realtime_s = Time.to_sec realtime_duration *. contention;
    virtual_duration = duration;
    delivered_bits = float_of_int (Packet_engine.total_rx_bytes engine) *. 8.0;
    offered_bits = float_of_int n_hosts *. rate *. Time.to_sec duration;
    packets_delivered = Packet_engine.rx_packets engine;
    packets_dropped = Packet_engine.drops engine;
    hops_processed = Packet_engine.hops_processed engine;
  }

let pp_result fmt r =
  Format.fprintf fmt
    "@[<v>pods=%d hosts=%d@,\
     creation: %.2fs modeled (+%.3fs measured build)@,\
     execution: %.3fs wall for %a virtual@,\
     delivered %.3g of %.3g offered bits (%d pkts, %d drops, %d hops)@]"
    r.pods
    (r.pods * r.pods * r.pods / 4)
    r.creation_modeled_s r.creation_real_s r.exec_wall_s Time.pp
    r.virtual_duration r.delivered_bits r.offered_bits r.packets_delivered
    r.packets_dropped r.hops_processed
