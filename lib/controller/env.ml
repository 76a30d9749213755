open Horse_net
open Horse_topo

type t = {
  env_topo : Topology.t;
  env_dpid_of_node : int -> int option;
  env_node_of_dpid : int -> int option;
  env_port_of_link : int -> int option;
  mutable ip_index : (Ipv4.t, int) Hashtbl.t option;
  down : bool array;  (* indexed by link id *)
  usable : Topology.link -> bool;
  ws : Spf.workspace;
}

let create ~topo ~dpid_of_node ~node_of_dpid ~port_of_link () =
  let down = Array.make (Topology.n_links topo) false in
  {
    env_topo = topo;
    env_dpid_of_node = dpid_of_node;
    env_node_of_dpid = node_of_dpid;
    env_port_of_link = port_of_link;
    ip_index = None;
    down;
    usable = (fun (l : Topology.link) -> not down.(l.Topology.link_id));
    ws = Spf.workspace ();
  }

let topo t = t.env_topo
let dpid_of_node t = t.env_dpid_of_node
let node_of_dpid t = t.env_node_of_dpid
let port_of_link t = t.env_port_of_link

let ip_index t =
  match t.ip_index with
  | Some index -> index
  | None ->
      let index = Hashtbl.create 64 in
      List.iter
        (fun (n : Topology.node) ->
          match (n.Topology.kind, n.Topology.ip) with
          | Topology.Host, Some ip -> Hashtbl.replace index ip n.Topology.id
          | (Topology.Host | Topology.Switch | Topology.Router), _ -> ())
        (Topology.nodes t.env_topo);
      t.ip_index <- Some index;
      index

let host_of_ip t ip = Hashtbl.find_opt (ip_index t) ip

let set_link_usable t link_id usable =
  t.down.(link_id) <- not usable;
  Spf.invalidate t.ws

let ecmp_paths t ~src ~dst =
  Spf.ecmp_between ~usable:t.usable t.ws t.env_topo ~src ~dst

let ecmp_pick t ~src ~dst index =
  Spf.ecmp_pick ~usable:t.usable t.ws t.env_topo ~src ~dst index

let edge_switch_of_host t host =
  List.find_map
    (fun (l : Topology.link) ->
      let peer = Topology.node t.env_topo l.Topology.dst in
      match peer.Topology.kind with
      | Topology.Switch -> Some peer.Topology.id
      | Topology.Host | Topology.Router -> None)
    (Topology.out_links t.env_topo host)

let edge_dpids t =
  let dpids =
    List.filter_map
      (fun (h : Topology.node) ->
        match edge_switch_of_host t h.Topology.id with
        | Some sw -> t.env_dpid_of_node sw
        | None -> None)
      (Topology.hosts t.env_topo)
  in
  List.sort_uniq Int.compare dpids
