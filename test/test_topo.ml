(* Tests for horse_topo: the graph, the Fat-Tree builder, WAN
   topologies and shortest-path computation. *)

open Horse_net
open Horse_topo
module Tm = Traffic_matrix

let check = Alcotest.check
let qtest = Horse_test_support.qtest

(* --- Topology --------------------------------------------------------- *)

let test_duplex_links () =
  let t = Topology.create () in
  let a = Topology.add_node t Topology.Switch in
  let b = Topology.add_node t Topology.Switch in
  let fwd, rev = Topology.add_duplex t ~capacity:1e9 a b in
  check Alcotest.int "fwd src" a.Topology.id fwd.Topology.src;
  check Alcotest.int "fwd dst" b.Topology.id fwd.Topology.dst;
  check Alcotest.int "peer of fwd" rev.Topology.link_id fwd.Topology.peer;
  check Alcotest.int "peer of rev" fwd.Topology.link_id rev.Topology.peer;
  check Alcotest.int "n_links counts directions" 2 (Topology.n_links t);
  check Alcotest.bool "find_link" true
    (Topology.find_link t ~src:a.Topology.id ~dst:b.Topology.id <> None);
  check Alcotest.bool "find_link reverse" true
    (Topology.find_link t ~src:b.Topology.id ~dst:a.Topology.id <> None)

let test_invalid_links () =
  let t = Topology.create () in
  let a = Topology.add_node t Topology.Switch in
  Alcotest.check_raises "self loop"
    (Invalid_argument "Topology.add_duplex: self-loop") (fun () ->
      ignore (Topology.add_duplex t ~capacity:1e9 a a));
  let b = Topology.add_node t Topology.Switch in
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Topology.add_duplex: capacity <= 0") (fun () ->
      ignore (Topology.add_duplex t ~capacity:0.0 a b))

let test_node_queries () =
  let t = Topology.create () in
  let h = Topology.add_node t ~name:"h0" ~ip:(Ipv4.of_octets 10 0 0 1) Topology.Host in
  let s = Topology.add_node t Topology.Switch in
  let _r = Topology.add_node t Topology.Router in
  check Alcotest.int "hosts" 1 (List.length (Topology.hosts t));
  check Alcotest.int "switches" 1 (List.length (Topology.switches t));
  check Alcotest.int "routers" 1 (List.length (Topology.routers t));
  check Alcotest.bool "by name" true (Topology.node_by_name t "h0" = Some h);
  check Alcotest.bool "by ip" true
    (Topology.node_by_ip t (Ipv4.of_octets 10 0 0 1) = Some h);
  check Alcotest.string "generated name" "switch1" s.Topology.name

(* --- Fat tree ---------------------------------------------------------- *)

let count_links_between topo pred =
  List.length (List.filter pred (Topology.links topo)) / 2

let fat_tree_structure k =
  let ft = Fat_tree.build ~k () in
  let topo = ft.Fat_tree.topo in
  check Alcotest.int "hosts" (k * k * k / 4) (Array.length ft.Fat_tree.hosts);
  check Alcotest.int "switch count"
    (5 * k * k / 4)
    (List.length (Topology.switches topo));
  check Alcotest.int "cores" (k * k / 4) (Array.length ft.Fat_tree.cores);
  (* Every edge switch: k/2 hosts + k/2 aggs. *)
  Array.iter
    (fun pod_edges ->
      Array.iter
        (fun (e : Topology.node) ->
          check Alcotest.int "edge degree" k
            (List.length (Topology.out_links topo e.Topology.id)))
        pod_edges)
    ft.Fat_tree.edges;
  (* Core degree = k (one per pod). *)
  Array.iter
    (fun (c : Topology.node) ->
      check Alcotest.int "core degree" k
        (List.length (Topology.out_links topo c.Topology.id)))
    ft.Fat_tree.cores;
  (* Total duplex links: k^3/4 host + k*(k/2)^2 edge-agg + (k/2)^2*k agg-core. *)
  let expected = (k * k * k / 4) + (k * k * k / 4) + (k * k * k / 4) in
  check Alcotest.int "duplex link count" expected
    (count_links_between topo (fun _ -> true))

let test_fat_tree_k4 () = fat_tree_structure 4
let test_fat_tree_k6 () = fat_tree_structure 6
let test_fat_tree_k8 () = fat_tree_structure 8

let test_fat_tree_addressing () =
  let ft = Fat_tree.build ~k:4 () in
  (* First host of pod 0 edge 0. *)
  check Alcotest.string "host 0" "10.0.0.2" (Ipv4.to_string (Fat_tree.host_ip ft 0));
  check Alcotest.string "host 1" "10.0.0.3" (Ipv4.to_string (Fat_tree.host_ip ft 1));
  (* Pod-major order: host 4 is pod 1. *)
  check Alcotest.int "pod of host 4" 1 (Fat_tree.pod_of_host ft 4);
  check Alcotest.string "host 4" "10.1.0.2" (Ipv4.to_string (Fat_tree.host_ip ft 4));
  (* Unique addresses all around. *)
  let all =
    List.filter_map (fun (n : Topology.node) -> n.Topology.ip)
      (Topology.nodes ft.Fat_tree.topo)
  in
  check Alcotest.int "all addresses unique" (List.length all)
    (List.length (List.sort_uniq Ipv4.compare all));
  (* Reverse lookup. *)
  match Fat_tree.host_of_ip ft (Ipv4.of_octets 10 1 0 2) with
  | Some n -> check Alcotest.string "reverse lookup" "h-p1-e0-0" n.Topology.name
  | None -> Alcotest.fail "host_of_ip failed"

let test_fat_tree_switch_links () =
  let ft = Fat_tree.build ~k:4 () in
  let topo = ft.Fat_tree.topo in
  let pairs = Topology.switch_links topo in
  (* k^3/4 edge-agg + k^3/4 agg-core duplex links. *)
  check Alcotest.int "pairs" 32 (List.length pairs);
  let ids =
    List.map
      (fun (a, b) ->
        let id name =
          match Topology.node_by_name topo name with
          | Some n ->
              check Alcotest.bool "no host" true (n.Topology.kind <> Topology.Host);
              n.Topology.id
          | None -> Alcotest.fail ("unknown node " ^ name)
        in
        match Topology.find_link topo ~src:(id a) ~dst:(id b) with
        | Some l -> l.Topology.link_id
        | None -> Alcotest.fail ("not adjacent: " ^ a ^ " " ^ b))
      pairs
  in
  check Alcotest.(list int) "link order" (List.sort_uniq compare ids) ids;
  check Alcotest.bool "lower-id direction" true
    (List.for_all (fun id -> id < (Topology.link topo id).Topology.peer) ids)

let test_fat_tree_bad_k () =
  Alcotest.check_raises "odd k"
    (Invalid_argument "Fat_tree.build: k must be even and >= 2, got 3") (fun () ->
      ignore (Fat_tree.build ~k:3 ()))

(* --- Leaf-spine -------------------------------------------------------- *)

let test_leaf_spine_structure () =
  let ls = Leaf_spine.build ~leaves:4 ~spines:3 ~hosts_per_leaf:5 () in
  let topo = ls.Leaf_spine.topo in
  check Alcotest.int "hosts" 20 (Array.length ls.Leaf_spine.hosts);
  check Alcotest.int "switches" 7 (List.length (Topology.switches topo));
  (* duplex links: 20 host + 4*3 fabric *)
  check Alcotest.int "duplex links" 32 (Topology.n_links topo / 2);
  (* leaf degree = hosts_per_leaf + spines *)
  Array.iter
    (fun (l : Topology.node) ->
      check Alcotest.int "leaf degree" 8
        (List.length (Topology.out_links topo l.Topology.id)))
    ls.Leaf_spine.leaves;
  check Alcotest.string "host addressing" "10.128.2.3"
    (Ipv4.to_string (Ipv4.add (Leaf_spine.host_ip ls (2 * 5)) 1));
  check Alcotest.bool "leaf prefix contains host" true
    (Prefix.mem (Leaf_spine.host_ip ls 7) (Leaf_spine.leaf_prefix ls 1))

let test_leaf_spine_ecmp () =
  let ls = Leaf_spine.build ~leaves:4 ~spines:6 ~hosts_per_leaf:2 () in
  let topo = ls.Leaf_spine.topo in
  let src = ls.Leaf_spine.hosts.(0).Topology.id in
  let tree = Spf.shortest_tree topo ~src in
  (* Different leaves: one path per spine; same leaf: one 2-hop path. *)
  check Alcotest.int "inter-leaf paths = spines" 6
    (List.length
       (Spf.ecmp_paths ~max_paths:100 tree topo
          ~dst:ls.Leaf_spine.hosts.(7).Topology.id));
  check Alcotest.int "intra-leaf single path" 1
    (List.length
       (Spf.ecmp_paths tree topo ~dst:ls.Leaf_spine.hosts.(1).Topology.id))

let test_leaf_spine_validation () =
  Alcotest.check_raises "zero spines"
    (Invalid_argument "Leaf_spine.build: dimensions must be positive")
    (fun () -> ignore (Leaf_spine.build ~leaves:2 ~spines:0 ~hosts_per_leaf:1 ()))

(* --- SPF --------------------------------------------------------------- *)

let test_spf_line () =
  let wan = Wan.linear 4 in
  let topo = wan.Wan.topo in
  let tree = Spf.shortest_tree topo ~src:0 in
  check (Alcotest.option Alcotest.int) "dist to 3" (Some 3) (Spf.distance tree 3);
  match Spf.first_path tree topo ~dst:3 with
  | Some path ->
      check Alcotest.int "3 hops" 3 (Spf.path_length path);
      check (Alcotest.list Alcotest.int) "node sequence" [ 0; 1; 2; 3 ]
        (Spf.path_nodes path)
  | None -> Alcotest.fail "no path on a line"

let test_spf_unreachable () =
  let t = Topology.create () in
  let _a = Topology.add_node t Topology.Router in
  let _b = Topology.add_node t Topology.Router in
  let tree = Spf.shortest_tree t ~src:0 in
  check (Alcotest.option Alcotest.int) "unreachable" None (Spf.distance tree 1);
  check Alcotest.bool "no path" true (Spf.first_path tree t ~dst:1 = None);
  check Alcotest.int "no ecmp paths" 0
    (List.length (Spf.ecmp_paths tree t ~dst:1))

let test_fat_tree_ecmp_count () =
  (* Between hosts in different pods of a k-ary fat tree there are
     (k/2)^2 equal-cost shortest paths. *)
  List.iter
    (fun k ->
      let ft = Fat_tree.build ~k () in
      let topo = ft.Fat_tree.topo in
      let src = ft.Fat_tree.hosts.(0).Topology.id in
      let dst = ft.Fat_tree.hosts.(Array.length ft.Fat_tree.hosts - 1).Topology.id in
      let tree = Spf.shortest_tree topo ~src in
      let paths = Spf.ecmp_paths ~max_paths:1000 tree topo ~dst in
      check Alcotest.int
        (Printf.sprintf "k=%d inter-pod paths" k)
        (k * k / 4) (List.length paths);
      (* All paths are 6 hops: host-edge-agg-core-agg-edge-host. *)
      List.iter
        (fun p -> check Alcotest.int "6 hops" 6 (Spf.path_length p))
        paths;
      (* Same-edge hosts: a single 2-hop path. *)
      let dst2 = ft.Fat_tree.hosts.(1).Topology.id in
      let paths2 = Spf.ecmp_paths tree topo ~dst:dst2 in
      check Alcotest.int "same-edge paths" 1 (List.length paths2);
      check Alcotest.int "2 hops" 2 (Spf.path_length (List.hd paths2)))
    [ 4; 6 ]

(* Work gate: a per-query search only expands nodes closer than its
   destination, and asks [usable] only about links it scans. A
   same-edge pair at k=8 expands the source host and its edge switch
   (1 + 7 links to new nodes) and walks back over 2 links, and the pick
   walks those 2 again to count the paths; a full tree asks about a
   link into each of the other 207 nodes. *)
let test_ecmp_between_work () =
  let ft = Fat_tree.build ~k:8 () in
  let topo = ft.Fat_tree.topo in
  check Alcotest.int "k=8 nodes" 208 (Topology.n_nodes topo);
  let ws = Spf.workspace () in
  let asked = ref 0 in
  let usable _ =
    incr asked;
    true
  in
  let work f =
    asked := 0;
    ignore (f ());
    !asked
  in
  let src = ft.Fat_tree.hosts.(0).Topology.id in
  let dst = ft.Fat_tree.hosts.(1).Topology.id in
  check Alcotest.int "same-edge paths" 1
    (List.length (Spf.ecmp_between ~usable ws topo ~src ~dst));
  check Alcotest.bool "same-edge scans <= 10 links" true
    (work (fun () -> Spf.ecmp_between ~usable ws topo ~src ~dst) <= 10);
  check Alcotest.int "src = dst scans nothing" 0
    (work (fun () -> Spf.ecmp_between ~usable ws topo ~src ~dst:src));
  (* The pick runs the same search. *)
  check Alcotest.bool "pick: same-edge scans <= 12 links" true
    (work (fun () -> Spf.ecmp_pick ~usable ws topo ~src ~dst (fun _ -> 0)) <= 12);
  check Alcotest.int "pick: src = dst scans nothing" 0
    (work (fun () -> Spf.ecmp_pick ~usable ws topo ~src ~dst:src (fun _ -> 0)))

(* Work gate for the picks of a reactive controller: one pick per host
   of a k=8 fat tree, each to a host four pods away, counted as calls
   to [usable]. Taken in host-id order, the 4 hosts behind one edge
   switch follow each other, so they share one search from that switch
   and its path counts: 7,456 calls, where a search per pick from the
   source host makes 26,112. Alternating edge switches, every pick
   starts a new search, which may cost no more than that per-host
   search did (25,984 calls). *)
let picks_work order =
  let ft = Fat_tree.build ~k:8 () in
  let topo = ft.Fat_tree.topo and hosts = ft.Fat_tree.hosts in
  let n = Array.length hosts in
  let ws = Spf.workspace () in
  let asked = ref 0 in
  let usable _ =
    incr asked;
    true
  in
  Array.iteri
    (fun i h ->
      let src = hosts.(h).Topology.id in
      let dst = hosts.((h + (n / 2)) mod n).Topology.id in
      match Spf.ecmp_pick ~usable ws topo ~src ~dst (fun c -> i mod c) with
      | Some p -> check Alcotest.int "6 hops" 6 (Spf.path_length p)
      | None -> Alcotest.fail "inter-pod pick found no path")
    (order n);
  !asked

let test_ecmp_pick_work () =
  let by_id n = Array.init n Fun.id in
  (* 32 edge switches of 4 hosts: consecutive picks change switch. *)
  let alternating n =
    Array.init n (fun j -> (j mod (n / 4) * 4) + (j / (n / 4)))
  in
  check Alcotest.bool "host-id order <= 8,000 calls" true
    (picks_work by_id <= 8_000);
  check Alcotest.bool "alternating order <= 26,112 calls" true
    (picks_work alternating <= 26_112)

let test_ecmp_paths_distinct_and_valid () =
  let ft = Fat_tree.build ~k:4 () in
  let topo = ft.Fat_tree.topo in
  let src = ft.Fat_tree.hosts.(0).Topology.id in
  let dst = ft.Fat_tree.hosts.(15).Topology.id in
  let tree = Spf.shortest_tree topo ~src in
  let paths = Spf.ecmp_paths tree topo ~dst in
  (* Distinct. *)
  let as_ids =
    List.map (fun p -> List.map (fun (l : Topology.link) -> l.Topology.link_id) p) paths
  in
  check Alcotest.int "distinct paths" (List.length as_ids)
    (List.length (List.sort_uniq compare as_ids));
  (* Contiguous and correctly terminated. *)
  List.iter
    (fun path ->
      (match Spf.path_nodes path with
      | first :: _ -> check Alcotest.int "starts at src" src first
      | [] -> Alcotest.fail "empty path");
      let rec contiguous = function
        | [] | [ _ ] -> true
        | (a : Topology.link) :: (b :: _ as rest) ->
            a.Topology.dst = b.Topology.src && contiguous rest
      in
      check Alcotest.bool "contiguous" true (contiguous path);
      match List.rev (Spf.path_nodes path) with
      | last :: _ -> check Alcotest.int "ends at dst" dst last
      | [] -> Alcotest.fail "empty path")
    paths

let prop_spf_matches_floyd_warshall =
  qtest ~count:50 "spf: Dijkstra distances match Floyd-Warshall on random graphs"
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 2 14))
    (fun (seed, n) ->
      let wan = Wan.random_gnp ~seed ~n ~p:0.3 () in
      let topo = wan.Wan.topo in
      let fw = Horse_test_support.all_pairs_hops topo in
      let ok = ref true in
      for src = 0 to n - 1 do
        let tree = Spf.shortest_tree topo ~src in
        for dst = 0 to n - 1 do
          let d1 = Option.value (Spf.distance tree dst) ~default:max_int in
          if d1 <> fw.(src).(dst) then ok := false
        done
      done;
      !ok)

let prop_ecmp_paths_equal_length =
  qtest ~count:50 "spf: all ecmp paths share the shortest length"
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 3 12))
    (fun (seed, n) ->
      let wan = Wan.random_gnp ~seed ~n ~p:0.4 () in
      let topo = wan.Wan.topo in
      let tree = Spf.shortest_tree topo ~src:0 in
      let ok = ref true in
      for dst = 1 to n - 1 do
        match Spf.distance tree dst with
        | None -> ()
        | Some d ->
            List.iter
              (fun p -> if Spf.path_length p <> d then ok := false)
              (Spf.ecmp_paths tree topo ~dst)
      done;
      !ok)

(* --- WAN --------------------------------------------------------------- *)

let test_wan_shapes () =
  let line = Wan.linear 5 in
  check Alcotest.int "line links" 8 (Topology.n_links line.Wan.topo);
  let ring = Wan.ring 5 in
  check Alcotest.int "ring links" 10 (Topology.n_links ring.Wan.topo);
  let ab = Wan.abilene () in
  check Alcotest.int "abilene nodes" 11 (Topology.n_nodes ab.Wan.topo);
  check Alcotest.int "abilene duplex links" 15 (Topology.n_links ab.Wan.topo / 2)

let test_wan_ring_distance () =
  let ring = Wan.ring 6 in
  let tree = Spf.shortest_tree ring.Wan.topo ~src:0 in
  check (Alcotest.option Alcotest.int) "opposite side" (Some 3)
    (Spf.distance tree 3);
  (* Two equal-cost paths around the ring to the opposite node. *)
  check Alcotest.int "two ways around" 2
    (List.length (Spf.ecmp_paths tree ring.Wan.topo ~dst:3))

let prop_random_gnp_connected =
  qtest ~count:50 "wan: random graphs are connected"
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 2 20))
    (fun (seed, n) ->
      let wan = Wan.random_gnp ~seed ~n ~p:0.1 () in
      let tree = Spf.shortest_tree wan.Wan.topo ~src:0 in
      let ok = ref true in
      for dst = 0 to n - 1 do
        if Spf.distance tree dst = None then ok := false
      done;
      !ok)

let test_wan_determinism () =
  let a = Wan.random_gnp ~seed:9 ~n:12 ~p:0.3 () in
  let b = Wan.random_gnp ~seed:9 ~n:12 ~p:0.3 () in
  check Alcotest.int "same link count" (Topology.n_links a.Wan.topo)
    (Topology.n_links b.Wan.topo)

(* --- Traffic matrices -------------------------------------------------- *)

let test_tm_gravity_normalises () =
  let masses = Tm.zipf_masses 8 in
  let tm = Tm.gravity ~total:1e9 ~masses in
  check (Alcotest.float 1.0) "cells sum to total" 1e9 (Tm.total tm);
  for i = 0 to Tm.n tm - 1 do
    check (Alcotest.float 0.0) "zero diagonal" 0.0 (Tm.demand tm ~src:i ~dst:i)
  done;
  (* Gravity: cell ratio equals mass-product ratio. *)
  let d01 = Tm.demand tm ~src:0 ~dst:1 and d23 = Tm.demand tm ~src:2 ~dst:3 in
  check (Alcotest.float 1e-9) "mass-product proportionality"
    (masses.(0) *. masses.(1) /. (masses.(2) *. masses.(3)))
    (d01 /. d23)

let test_tm_zipf_shape () =
  let m = Tm.zipf_masses 5 in
  check (Alcotest.float 1e-12) "rank 1" 1.0 m.(0);
  check (Alcotest.float 1e-12) "rank 3" (1.0 /. 3.0) m.(2);
  check Alcotest.bool "monotone" true
    (m.(0) > m.(1) && m.(1) > m.(2) && m.(2) > m.(3) && m.(3) > m.(4))

let prop_tm_diurnal_bounds =
  qtest ~count:50 "tm: diurnal factor stays within [trough, 1]"
    QCheck2.Gen.(pair (float_range 0.0 86_400.0) (float_range 0.0 1.0))
    (fun (t, phase) ->
      let f = Tm.diurnal_factor ~period_s:86_400.0 ~phase t in
      f >= 0.2 -. 1e-9 && f <= 1.0 +. 1e-9)

let test_tm_diurnal_peak_at_phase () =
  (* Phase is in cycles: the peak sits at phase × period. *)
  let f = Tm.diurnal_factor ~period_s:100.0 ~phase:0.25 25.0 in
  check (Alcotest.float 1e-9) "peak" 1.0 f;
  let g = Tm.diurnal_factor ~period_s:100.0 ~phase:0.25 75.0 in
  check (Alcotest.float 1e-9) "trough opposite the peak" 0.2 g

let () =
  Alcotest.run "horse_topo"
    [
      ( "topology",
        [
          Alcotest.test_case "duplex links" `Quick test_duplex_links;
          Alcotest.test_case "invalid links" `Quick test_invalid_links;
          Alcotest.test_case "node queries" `Quick test_node_queries;
        ] );
      ( "fat_tree",
        [
          Alcotest.test_case "structure k=4" `Quick test_fat_tree_k4;
          Alcotest.test_case "structure k=6" `Quick test_fat_tree_k6;
          Alcotest.test_case "structure k=8" `Quick test_fat_tree_k8;
          Alcotest.test_case "addressing" `Quick test_fat_tree_addressing;
          Alcotest.test_case "bad k rejected" `Quick test_fat_tree_bad_k;
          Alcotest.test_case "switch links" `Quick test_fat_tree_switch_links;
        ] );
      ( "leaf_spine",
        [
          Alcotest.test_case "structure" `Quick test_leaf_spine_structure;
          Alcotest.test_case "ecmp count" `Quick test_leaf_spine_ecmp;
          Alcotest.test_case "validation" `Quick test_leaf_spine_validation;
        ] );
      ( "spf",
        [
          Alcotest.test_case "line" `Quick test_spf_line;
          Alcotest.test_case "unreachable" `Quick test_spf_unreachable;
          Alcotest.test_case "fat-tree ecmp count" `Quick test_fat_tree_ecmp_count;
          Alcotest.test_case "ecmp paths distinct and valid" `Quick
            test_ecmp_paths_distinct_and_valid;
          Alcotest.test_case "ecmp_between work" `Quick test_ecmp_between_work;
          Alcotest.test_case "ecmp_pick work" `Quick test_ecmp_pick_work;
          prop_spf_matches_floyd_warshall;
          prop_ecmp_paths_equal_length;
        ] );
      ( "wan",
        [
          Alcotest.test_case "shapes" `Quick test_wan_shapes;
          Alcotest.test_case "ring distances" `Quick test_wan_ring_distance;
          Alcotest.test_case "determinism" `Quick test_wan_determinism;
          prop_random_gnp_connected;
        ] );
      ( "traffic_matrix",
        [
          Alcotest.test_case "gravity normalises" `Quick
            test_tm_gravity_normalises;
          Alcotest.test_case "zipf masses" `Quick test_tm_zipf_shape;
          Alcotest.test_case "diurnal peak and trough" `Quick
            test_tm_diurnal_peak_at_phase;
          prop_tm_diurnal_bounds;
        ] );
    ]
