open Horse_topo
open Horse_openflow

(* [(dpid, out_port)] for every switch hop of the path, in order; hops
   whose node has no dpid (hosts) are skipped. *)
let path_hops env path =
  List.filter_map
    (fun (l : Topology.link) ->
      match (Env.dpid_of_node env l.Topology.src, Env.port_of_link env l.Topology.link_id) with
      | Some dpid, Some port -> Some (dpid, port)
      | None, _ | _, None -> None)
    path

let install_path ctrl env ~match_ ?(priority = 10) path =
  List.iter
    (fun (dpid, port) ->
      match Controller.switch_by_dpid ctrl dpid with
      | None -> ()
      | Some sw ->
          Controller.send_flow_mod ctrl sw
            {
              Ofmsg.match_;
              cookie = 0;
              command = Ofmsg.Add;
              idle_timeout_s = 0;
              hard_timeout_s = 0;
              priority;
              actions = [ Action.Output port ];
            })
    (path_hops env path)

let first_hop_port env path =
  match path_hops env path with [] -> None | hop :: _ -> Some hop
