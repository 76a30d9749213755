open Horse_net

type t = {
  k : int;
  topo : Topology.t;
  hosts : Topology.node array;
  edges : Topology.node array array;
  aggs : Topology.node array array;
  cores : Topology.node array;
}

let n_hosts ~k = k * k * k / 4
let n_switches ~k = 5 * k * k / 4

(* Every link: 1 Gbps, 10 µs. *)
let capacity = 1e9
let delay = Horse_engine.Time.of_us 10

let build ~k () =
  if k < 2 || k mod 2 <> 0 then
    invalid_arg (Printf.sprintf "Fat_tree.build: k must be even and >= 2, got %d" k);
  let topo = Topology.create () in
  let half = k / 2 in
  let switch_ip ~pod ~s = Ipv4.of_octets 10 pod s 1 in
  let core_ip ~j ~i = Ipv4.of_octets 10 k j i in
  let host_addr ~pod ~e ~h = Ipv4.of_octets 10 pod e (h + 2) in
  let edges =
    Array.init k (fun pod ->
        Array.init half (fun e ->
            Topology.add_node topo
              ~name:(Printf.sprintf "edge-p%d-%d" pod e)
              ~ip:(switch_ip ~pod ~s:e) Topology.Switch))
  in
  let aggs =
    Array.init k (fun pod ->
        Array.init half (fun a ->
            Topology.add_node topo
              ~name:(Printf.sprintf "agg-p%d-%d" pod a)
              ~ip:(switch_ip ~pod ~s:(half + a))
              Topology.Switch))
  in
  let cores =
    Array.init (half * half) (fun idx ->
        let j = (idx / half) + 1 and i = (idx mod half) + 1 in
        Topology.add_node topo
          ~name:(Printf.sprintf "core-%d-%d" j i)
          ~ip:(core_ip ~j ~i) Topology.Switch)
  in
  let hosts =
    Array.init (n_hosts ~k) (fun idx ->
        let per_pod = half * half in
        let pod = idx / per_pod in
        let within = idx mod per_pod in
        let e = within / half and h = within mod half in
        Topology.add_node topo
          ~name:(Printf.sprintf "h-p%d-e%d-%d" pod e h)
          ~ip:(host_addr ~pod ~e ~h)
          ~mac:(Mac.of_index idx) Topology.Host)
  in
  let connect a b = ignore (Topology.add_duplex topo ~delay ~capacity a b) in
  (* host -- edge *)
  Array.iteri
    (fun idx host ->
      let per_pod = half * half in
      let pod = idx / per_pod in
      let e = idx mod per_pod / half in
      connect host edges.(pod).(e))
    hosts;
  (* edge -- agg: full bipartite graph inside each pod *)
  for pod = 0 to k - 1 do
    for e = 0 to half - 1 do
      for a = 0 to half - 1 do
        connect edges.(pod).(e) aggs.(pod).(a)
      done
    done
  done;
  (* agg -- core: aggregation switch [a] serves core group [a] *)
  for pod = 0 to k - 1 do
    for a = 0 to half - 1 do
      for c = 0 to half - 1 do
        connect aggs.(pod).(a) cores.((a * half) + c)
      done
    done
  done;
  { k; topo; hosts; edges; aggs; cores }

let host_ip t i =
  match t.hosts.(i).Topology.ip with
  | Some ip -> ip
  | None -> assert false (* every fat-tree host is built with an address *)

let host_of_ip t ip =
  Array.find_opt
    (fun (n : Topology.node) ->
      match n.Topology.ip with Some a -> Ipv4.equal a ip | None -> false)
    t.hosts

let pod_of_host t i = i / (t.k * t.k / 4)

let edge_subnets t =
  let subnets = Array.make (Topology.n_nodes t.topo) [] in
  Array.iteri
    (fun pod edges ->
      Array.iteri
        (fun e (edge : Topology.node) ->
          subnets.(edge.Topology.id) <- [ Prefix.make (Ipv4.of_octets 10 pod e 0) 24 ])
        edges)
    t.edges;
  fun node -> subnets.(node)
