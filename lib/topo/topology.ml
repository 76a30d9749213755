open Horse_net

type kind = Host | Switch | Router

let pp_kind fmt k =
  Format.pp_print_string fmt
    (match k with Host -> "host" | Switch -> "switch" | Router -> "router")

type node = {
  id : int;
  name : string;
  kind : kind;
  mutable ip : Ipv4.t option;
  mutable mac : Mac.t option;
}

type link = {
  link_id : int;
  src : int;
  dst : int;
  mutable capacity : float;
  delay : Horse_engine.Time.t;
  peer : int;
}

type t = {
  mutable node_arr : node array;
  mutable nn : int;
  mutable link_arr : link array;
  mutable nl : int;
  mutable adj : link list array;  (* out-links per node, in creation order *)
}

let dummy_node = { id = -1; name = ""; kind = Host; ip = None; mac = None }

let dummy_link =
  { link_id = -1; src = -1; dst = -1; capacity = 0.0; delay = Horse_engine.Time.zero; peer = -1 }

let create () =
  {
    node_arr = Array.make 16 dummy_node;
    nn = 0;
    link_arr = Array.make 32 dummy_link;
    nl = 0;
    adj = Array.make 16 [];
  }

let ensure_node_capacity t =
  if t.nn = Array.length t.node_arr then begin
    let bigger = Array.make (2 * t.nn) dummy_node in
    Array.blit t.node_arr 0 bigger 0 t.nn;
    t.node_arr <- bigger;
    let adj = Array.make (2 * t.nn) [] in
    Array.blit t.adj 0 adj 0 t.nn;
    t.adj <- adj
  end

let ensure_link_capacity t =
  if t.nl + 1 >= Array.length t.link_arr then begin
    let bigger = Array.make (2 * Array.length t.link_arr) dummy_link in
    Array.blit t.link_arr 0 bigger 0 t.nl;
    t.link_arr <- bigger
  end

let default_name kind id =
  Format.asprintf "%a%d" pp_kind kind id

let add_node t ?name ?ip ?mac kind =
  ensure_node_capacity t;
  let id = t.nn in
  let name = Option.value name ~default:(default_name kind id) in
  let n = { id; name; kind; ip; mac } in
  t.node_arr.(id) <- n;
  t.nn <- t.nn + 1;
  n

let add_duplex t ?(delay = Horse_engine.Time.of_us 10) ~capacity (a : node) (b : node) =
  if capacity <= 0.0 then invalid_arg "Topology.add_duplex: capacity <= 0";
  if a.id = b.id then invalid_arg "Topology.add_duplex: self-loop";
  ensure_link_capacity t;
  let fwd_id = t.nl and rev_id = t.nl + 1 in
  let fwd =
    { link_id = fwd_id; src = a.id; dst = b.id; capacity; delay; peer = rev_id }
  in
  let rev =
    { link_id = rev_id; src = b.id; dst = a.id; capacity; delay; peer = fwd_id }
  in
  t.link_arr.(fwd_id) <- fwd;
  t.link_arr.(rev_id) <- rev;
  t.nl <- t.nl + 2;
  t.adj.(a.id) <- t.adj.(a.id) @ [ fwd ];
  t.adj.(b.id) <- t.adj.(b.id) @ [ rev ];
  (fwd, rev)

let node t id =
  if id < 0 || id >= t.nn then
    invalid_arg (Printf.sprintf "Topology.node: unknown id %d" id);
  t.node_arr.(id)

let link t id =
  if id < 0 || id >= t.nl then
    invalid_arg (Printf.sprintf "Topology.link: unknown id %d" id);
  t.link_arr.(id)

let set_capacity t id capacity =
  if capacity <= 0.0 then invalid_arg "Topology.set_capacity: capacity <= 0";
  (link t id).capacity <- capacity

let nodes t = List.init t.nn (fun i -> t.node_arr.(i))
let links t = List.init t.nl (fun i -> t.link_arr.(i))
let n_nodes t = t.nn
let n_links t = t.nl
let out_links t id = t.adj.(id)

let find_link t ~src ~dst =
  List.find_opt (fun l -> l.dst = dst) (out_links t src)

let switch_links t =
  let forwards id =
    match (node t id).kind with Switch | Router -> true | Host -> false
  in
  List.filter_map
    (fun l ->
      if l.link_id < l.peer && forwards l.src && forwards l.dst then
        Some ((node t l.src).name, (node t l.dst).name)
      else None)
    (links t)

let filter_kind t kind = List.filter (fun n -> n.kind = kind) (nodes t)
let hosts t = filter_kind t Host
let switches t = filter_kind t Switch
let routers t = filter_kind t Router

let node_by_name t name =
  List.find_opt (fun n -> String.equal n.name name) (nodes t)

let node_by_ip t ip =
  List.find_opt
    (fun n -> match n.ip with Some a -> Ipv4.equal a ip | None -> false)
    (nodes t)

let pp_node fmt n =
  match n.ip with
  | Some ip -> Format.fprintf fmt "%s(%a)" n.name Ipv4.pp ip
  | None -> Format.pp_print_string fmt n.name
