open Horse_net

type t = { topo : Topology.t; routers : Topology.node array }

let loopback i = Ipv4.of_octets 192 0 ((i / 250) + 2) ((i mod 250) + 1)

let make_routers topo n =
  Array.init n (fun i ->
      Topology.add_node topo
        ~name:(Printf.sprintf "r%d" i)
        ~ip:(loopback i) Topology.Router)

(* Every router-router link: 10 Gbps, 5 ms; host access links: 1 ms. *)
let capacity = 10e9
let delay = Horse_engine.Time.of_ms 5
let host_delay = Horse_engine.Time.of_ms 1

let linear n =
  if n < 1 then invalid_arg "Wan.linear: n < 1";
  let topo = Topology.create () in
  let routers = make_routers topo n in
  for i = 0 to n - 2 do
    ignore (Topology.add_duplex topo ~delay ~capacity routers.(i) routers.(i + 1))
  done;
  { topo; routers }

let ring n =
  if n < 3 then invalid_arg "Wan.ring: n < 3";
  let topo = Topology.create () in
  let routers = make_routers topo n in
  for i = 0 to n - 1 do
    ignore
      (Topology.add_duplex topo ~delay ~capacity routers.(i)
         routers.((i + 1) mod n))
  done;
  { topo; routers }

let random_gnp ~seed ~n ~p () =
  if n < 1 then invalid_arg "Wan.random_gnp: n < 1";
  if p < 0.0 || p > 1.0 then invalid_arg "Wan.random_gnp: p outside [0,1]";
  let rng = Horse_engine.Rng.create seed in
  let topo = Topology.create () in
  let routers = make_routers topo n in
  let connected = Array.make_matrix n n false in
  let connect i j =
    if not connected.(i).(j) then begin
      connected.(i).(j) <- true;
      connected.(j).(i) <- true;
      ignore (Topology.add_duplex topo ~delay ~capacity routers.(i) routers.(j))
    end
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Horse_engine.Rng.float rng 1.0 < p then connect i j
    done
  done;
  (* Spanning chain over a random permutation guarantees
     connectivity. *)
  let order = Horse_engine.Rng.permutation rng n in
  for i = 0 to n - 2 do
    connect order.(i) order.(i + 1)
  done;
  { topo; routers }

(* Abilene: 11 PoPs; adjacency from the standard published map. *)
let abilene_edges =
  [
    (0, 1) (* Seattle - Sunnyvale *);
    (0, 2) (* Seattle - Denver *);
    (1, 3) (* Sunnyvale - Los Angeles *);
    (1, 2) (* Sunnyvale - Denver *);
    (2, 4) (* Denver - Kansas City *);
    (3, 5) (* Los Angeles - Houston *);
    (4, 5) (* Kansas City - Houston *);
    (4, 6) (* Kansas City - Indianapolis *);
    (5, 7) (* Houston - Atlanta *);
    (6, 7) (* Indianapolis - Atlanta *);
    (6, 8) (* Indianapolis - Chicago *);
    (7, 9) (* Atlanta - Washington *);
    (8, 9) (* Chicago - Washington *);
    (8, 10) (* Chicago - New York *);
    (9, 10) (* Washington - New York *);
  ]

let abilene () =
  let topo = Topology.create () in
  let routers = make_routers topo 11 in
  List.iter
    (fun (i, j) ->
      ignore (Topology.add_duplex topo ~delay ~capacity routers.(i) routers.(j)))
    abilene_edges;
  { topo; routers }

let attach_hosts ?(capacity = 1e9) t =
  Array.mapi
    (fun i router ->
      let prefix = Prefix.make (Ipv4.of_octets 203 (i / 256) (i mod 256) 0) 24 in
      let host =
        Topology.add_node t.topo
          ~name:(Printf.sprintf "h%d" i)
          ~ip:(Ipv4.add (Prefix.network prefix) 1)
          ~mac:(Mac.of_index (100000 + i))
          Topology.Host
      in
      ignore (Topology.add_duplex t.topo ~delay:host_delay ~capacity router host);
      host)
    t.routers

let router_ip t i =
  match t.routers.(i).Topology.ip with
  | Some ip -> ip
  | None -> assert false (* every WAN router is built with a loopback *)

let router_prefix _t i =
  Prefix.make (Ipv4.of_octets 203 (i / 256) (i mod 256) 0) 24
