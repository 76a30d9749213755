open Horse_net
open Horse_topo
open Horse_openflow

type mode = Five_tuple | Src_dst

type t = {
  ctrl : Controller.t;
  env : Env.t;
  mode : mode;
  priority : int;
  routed : Spf.path Flow_key.Table.t;
  mutable reroute_hooks : (Flow_key.t -> Spf.path -> unit) list;
  mutable reroutes : int;
}

let hash_of_mode = function
  | Five_tuple -> Flow_key.hash_5tuple
  | Src_dst -> Flow_key.hash_src_dst

let path_index mode key n = Flow_key.select ~hash:(hash_of_mode mode key) n

let match_of_mode mode key =
  match mode with
  | Five_tuple -> Ofmatch.exact_5tuple key
  | Src_dst ->
      {
        Ofmatch.any with
        Ofmatch.m_eth_type = Some 0x0800;
        m_ip_src = Some (Prefix.host key.Flow_key.src);
        m_ip_dst = Some (Prefix.host key.Flow_key.dst);
      }

let handle_packet_in t sw (pi : Ofmsg.packet_in) =
  match Packet.decode pi.Ofmsg.data with
  | Error _ -> ()
  | Ok frame -> (
      match Flow_key.of_packet frame with
      | None -> ()
      | Some key -> (
          match
            ( Env.host_of_ip t.env key.Flow_key.src,
              Env.host_of_ip t.env key.Flow_key.dst )
          with
          | Some src, Some dst -> (
              match Env.ecmp_pick t.env ~src ~dst (path_index t.mode key) with
              | None -> ()
              | Some path ->
                  Install.install_path t.ctrl t.env
                    ~match_:(match_of_mode t.mode key) ~priority:t.priority path;
                  Flow_key.Table.replace t.routed key path;
                  (* Release the held packet at its ingress switch. *)
                  let release_port =
                    match Install.first_hop_port t.env path with
                    | Some (dpid, port) when dpid = Controller.dpid sw ->
                        Some port
                    | Some _ | None -> None
                  in
                  (match release_port with
                  | Some port ->
                      Controller.send_packet_out t.ctrl sw
                        {
                          Ofmsg.po_in_port = pi.Ofmsg.in_port;
                          po_actions = [ Action.Output port ];
                          po_data = pi.Ofmsg.data;
                        }
                  | None -> ()))
          | None, _ | _, None -> ()))

(* PORT_STATUS: recompute every routed flow whose path crossed the
   affected (dpid, port), now that the Env excludes (or restores) the
   link. *)
let handle_port_status t sw (ps : Ofmsg.port_status) =
  match Env.node_of_dpid t.env (Controller.dpid sw) with
  | None -> ()
  | Some node -> (
      match
        List.find_opt
          (fun (l : Topology.link) ->
            Env.port_of_link t.env l.Topology.link_id = Some ps.Ofmsg.pst_port)
          (Topology.out_links (Env.topo t.env) node)
      with
      | None -> ()
      | Some link ->
          Env.set_link_usable t.env link.Topology.link_id
            (ps.Ofmsg.pst_reason <> 1);
          let affected =
            Flow_key.Table.fold
              (fun key path acc ->
                let crosses =
                  List.exists
                    (fun (l : Topology.link) ->
                      l.Topology.link_id = link.Topology.link_id)
                    path
                in
                if crosses then key :: acc else acc)
              t.routed []
          in
          List.iter
            (fun key ->
              match
                ( Env.host_of_ip t.env key.Flow_key.src,
                  Env.host_of_ip t.env key.Flow_key.dst )
              with
              | Some src, Some dst -> (
                  match
                    Env.ecmp_pick t.env ~src ~dst (path_index t.mode key)
                  with
                  | None -> ()
                  | Some path ->
                      Install.install_path t.ctrl t.env
                        ~match_:(match_of_mode t.mode key) ~priority:t.priority
                        path;
                      Flow_key.Table.replace t.routed key path;
                      t.reroutes <- t.reroutes + 1;
                      List.iter (fun f -> f key path) t.reroute_hooks)
              | None, _ | _, None -> ())
            affected)

let install ?(mode = Five_tuple) ?(priority = 10) ctrl env =
  let t =
    {
      ctrl;
      env;
      mode;
      priority;
      routed = Flow_key.Table.create 64;
      reroute_hooks = [];
      reroutes = 0;
    }
  in
  Controller.on_packet_in ctrl (fun sw pi -> handle_packet_in t sw pi);
  Controller.on_port_status ctrl (fun sw ps -> handle_port_status t sw ps);
  t

let flows_routed t = Flow_key.Table.length t.routed
let reroutes t = t.reroutes
let on_reroute t f = t.reroute_hooks <- t.reroute_hooks @ [ f ]
let path_of t key = Flow_key.Table.find_opt t.routed key
