(* Tests for horse_controller: framework handshake and request
   correlation, Hedera demand estimation, flow placement, and the
   reactive ECMP application. *)

open Horse_net
open Horse_engine
open Horse_emulation
open Horse_topo
open Horse_openflow
open Horse_controller

let check = Alcotest.check
let qtest = Horse_test_support.qtest
let ip = Ipv4.of_string_exn

(* --- rig: a controller wired to n switch agents ------------------------- *)

type rig = {
  sched : Sched.t;
  ctrl : Controller.t;
  agents : Switch.t list;
}

let make_rig ~dpids_ports =
  let sched = Sched.create () in
  let ctrl = Controller.create (Process.create sched) in
  let agents =
    List.map
      (fun (dpid, ports) ->
        let chan = Channel.create sched ~latency:(Time.of_ms 1) () in
        let sw_end, ctrl_end = Channel.endpoints chan in
        let agent =
          Switch.create (Process.create sched) ~dpid ~ports sw_end
        in
        Switch.start agent;
        Controller.connect ctrl ctrl_end;
        agent)
      dpids_ports
  in
  { sched; ctrl; agents }

let test_handshake_and_lookup () =
  let rig = make_rig ~dpids_ports:[ (1, [ (1, 10) ]); (2, [ (1, 20) ]) ] in
  let ups = ref [] in
  Controller.on_switch_up rig.ctrl (fun sw -> ups := Controller.dpid sw :: !ups);
  ignore (Sched.run ~until:(Time.of_ms 100) rig.sched);
  check Alcotest.int "both up" 2 (List.length (Controller.switches rig.ctrl));
  check (Alcotest.list Alcotest.int) "up hooks fired" [ 1; 2 ] (List.sort compare !ups);
  check Alcotest.bool "by dpid" true (Controller.switch_by_dpid rig.ctrl 2 <> None);
  check Alcotest.bool "unknown dpid" true (Controller.switch_by_dpid rig.ctrl 9 = None)

(* Two flow-stats requests in flight at once: each reply reaches the
   callback of its own request, matched by transaction id. *)
let test_stats_correlation () =
  let rig = make_rig ~dpids_ports:[ (1, [ (1, 10) ]); (2, [ (1, 20) ]) ] in
  ignore (Sched.run ~until:(Time.of_ms 20) rig.sched);
  let sw1 = Option.get (Controller.switch_by_dpid rig.ctrl 1) in
  let sw2 = Option.get (Controller.switch_by_dpid rig.ctrl 2) in
  ignore
    (Sched.schedule_at rig.sched (Time.of_ms 30) (fun () ->
         Controller.send_flow_mod rig.ctrl sw2
           {
             Ofmsg.match_ = Ofmatch.any;
             cookie = 0;
             command = Ofmsg.Add;
             idle_timeout_s = 0;
             hard_timeout_s = 0;
             priority = 1;
             actions = [ Action.Output 1 ];
           }));
  let replies = ref [] in
  ignore
    (Sched.schedule_at rig.sched (Time.of_ms 60) (fun () ->
         List.iter
           (fun sw ->
             Controller.request_flow_stats rig.ctrl sw (fun entries ->
                 replies := (Controller.dpid sw, List.length entries) :: !replies))
           [ sw1; sw2 ]));
  ignore (Sched.run ~until:(Time.of_ms 200) rig.sched);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "one reply per request, with its switch's entries" [ (1, 0); (2, 1) ]
    (List.sort compare !replies)

let test_flow_mod_reaches_switch () =
  let rig = make_rig ~dpids_ports:[ (1, [ (1, 10) ]) ] in
  ignore (Sched.run ~until:(Time.of_ms 20) rig.sched);
  let sw = Option.get (Controller.switch_by_dpid rig.ctrl 1) in
  ignore
    (Sched.schedule_at rig.sched (Time.of_ms 30) (fun () ->
         Controller.send_flow_mod rig.ctrl sw
           {
             Ofmsg.match_ = Ofmatch.any;
             cookie = 0;
             command = Ofmsg.Add;
             idle_timeout_s = 0;
             hard_timeout_s = 0;
             priority = 1;
             actions = [ Action.Output 1 ];
           }));
  ignore (Sched.run ~until:(Time.of_ms 100) rig.sched);
  check Alcotest.int "installed" 1 (Flow_table.size (Switch.table (List.hd rig.agents)))

(* --- Demand estimation ---------------------------------------------------- *)

let demands flows =
  List.map (fun (f, d) -> (f.Demand.src, f.Demand.dst, d)) (Demand.estimate flows)

let test_demand_single_flow () =
  match demands [ { Demand.src = 0; dst = 1; tag = 0 } ] with
  | [ (0, 1, d) ] -> check (Alcotest.float 1e-9) "full NIC" 1.0 d
  | _ -> Alcotest.fail "unexpected shape"

let test_demand_sender_limited () =
  let flows =
    [ { Demand.src = 0; dst = 1; tag = 0 }; { Demand.src = 0; dst = 2; tag = 1 } ]
  in
  List.iter
    (fun (_, _, d) -> check (Alcotest.float 1e-9) "half each" 0.5 d)
    (demands flows)

let test_demand_receiver_limited () =
  let flows =
    [ { Demand.src = 0; dst = 2; tag = 0 }; { Demand.src = 1; dst = 2; tag = 1 } ]
  in
  List.iter
    (fun (_, _, d) -> check (Alcotest.float 1e-9) "receiver split" 0.5 d)
    (demands flows)

let test_demand_mixed () =
  (* A->B, A->C, B->C: sources split, C receives 2 flows.
     Fixpoint: all flows 0.5. *)
  let flows =
    [
      { Demand.src = 0; dst = 1; tag = 0 };
      { Demand.src = 0; dst = 2; tag = 1 };
      { Demand.src = 1; dst = 2; tag = 2 };
    ]
  in
  List.iter
    (fun (_, _, d) -> check (Alcotest.float 1e-9) "balanced" 0.5 d)
    (demands flows)

let test_demand_asymmetric () =
  (* Host 0 sends 3 flows to distinct hosts; one of those hosts also
     receives from host 4. Flows from 0: 1/3 each. Receiver 1 gets
     1/3 + flow from 4 (which can send 1.0 but receiver cap lets it
     have 2/3). *)
  let flows =
    [
      { Demand.src = 0; dst = 1; tag = 0 };
      { Demand.src = 0; dst = 2; tag = 1 };
      { Demand.src = 0; dst = 3; tag = 2 };
      { Demand.src = 4; dst = 1; tag = 3 };
    ]
  in
  let result = demands flows in
  List.iter
    (fun (src, dst, d) ->
      match (src, dst) with
      | 0, _ -> check (Alcotest.float 1e-6) "from 0: third" (1.0 /. 3.0) d
      | 4, 1 -> check (Alcotest.float 1e-6) "from 4: remainder" (2.0 /. 3.0) d
      | _ -> Alcotest.fail "unexpected flow")
    result

let test_demand_permutation_saturates () =
  (* A derangement workload: every host sends one and receives one
     flow -> every demand is the full NIC. *)
  let n = 16 in
  let flows =
    List.init n (fun i -> { Demand.src = i; dst = (i + 1) mod n; tag = i })
  in
  List.iter
    (fun (_, _, d) -> check (Alcotest.float 1e-9) "full rate" 1.0 d)
    (demands flows)

let test_big_flows_threshold () =
  let estimated =
    [
      ({ Demand.src = 0; dst = 1; tag = 0 }, 0.05);
      ({ Demand.src = 0; dst = 2; tag = 1 }, 0.10);
      ({ Demand.src = 0; dst = 3; tag = 2 }, 0.90);
    ]
  in
  check Alcotest.int "default threshold keeps >= 0.1" 2
    (List.length (Demand.big_flows estimated));
  check Alcotest.int "custom threshold" 1
    (List.length (Demand.big_flows ~threshold:0.5 estimated))

(* --- Placement -------------------------------------------------------------- *)

(* Two disjoint 1 Gbps paths represented by fabricated links. *)
let diamond_paths () =
  let topo = Topology.create () in
  let a = Topology.add_node topo Topology.Switch in
  let up = Topology.add_node topo Topology.Switch in
  let down = Topology.add_node topo Topology.Switch in
  let b = Topology.add_node topo Topology.Switch in
  let l1, _ = Topology.add_duplex topo ~capacity:1e9 a up in
  let l2, _ = Topology.add_duplex topo ~capacity:1e9 up b in
  let l3, _ = Topology.add_duplex topo ~capacity:1e9 a down in
  let l4, _ = Topology.add_duplex topo ~capacity:1e9 down b in
  (topo, [ l1; l2 ], [ l3; l4 ])

let capacity_1g _ = 1e9

let test_gff_spreads () =
  let _, path_up, path_down = diamond_paths () in
  let requests =
    [
      { Placer.tag = 0; demand_bps = 0.8e9; candidates = [ path_up; path_down ] };
      { Placer.tag = 1; demand_bps = 0.8e9; candidates = [ path_up; path_down ] };
    ]
  in
  match Placer.global_first_fit ~capacity:capacity_1g requests with
  | [ { Placer.p_tag = 0; path = Some p0 }; { Placer.p_tag = 1; path = Some p1 } ]
    ->
      check Alcotest.bool "first takes first path" true (p0 == path_up);
      check Alcotest.bool "second spills to second path" true (p1 == path_down)
  | _ -> Alcotest.fail "unexpected placement"

let test_gff_no_fit () =
  let _, path_up, _ = diamond_paths () in
  let requests =
    [
      { Placer.tag = 0; demand_bps = 0.9e9; candidates = [ path_up ] };
      { Placer.tag = 1; demand_bps = 0.9e9; candidates = [ path_up ] };
    ]
  in
  match Placer.global_first_fit ~capacity:capacity_1g requests with
  | [ { Placer.path = Some _; _ }; { Placer.path = None; _ } ] -> ()
  | _ -> Alcotest.fail "second flow should not fit"

let test_oversubscription () =
  let _, path_up, path_down = diamond_paths () in
  check (Alcotest.float 1.0) "no overload" 0.0
    (Placer.oversubscription ~capacity:capacity_1g
       [ (0.8e9, path_up); (0.8e9, path_down) ]);
  (* Both on the same path: 0.6 Gbps excess on each of 2 links. *)
  check (Alcotest.float 1.0) "overload measured" 1.2e9
    (Placer.oversubscription ~capacity:capacity_1g
       [ (0.8e9, path_up); (0.8e9, path_up) ])

let test_annealing_finds_spread () =
  let _, path_up, path_down = diamond_paths () in
  let requests =
    [
      { Placer.tag = 0; demand_bps = 0.8e9; candidates = [ path_up; path_down ] };
      { Placer.tag = 1; demand_bps = 0.8e9; candidates = [ path_up; path_down ] };
      { Placer.tag = 2; demand_bps = 0.1e9; candidates = [ path_up; path_down ] };
    ]
  in
  let placements =
    Placer.annealing ~capacity:capacity_1g ~rng:(Rng.create 1) requests
  in
  let assignment =
    List.map
      (fun (pl : Placer.placement) ->
        (pl.Placer.p_tag, Option.get pl.Placer.path))
      placements
  in
  let energy =
    Placer.oversubscription ~capacity:capacity_1g
      (List.map
         (fun (tag, path) ->
           let r = List.nth requests tag in
           (r.Placer.demand_bps, path))
         assignment)
  in
  check (Alcotest.float 1.0) "annealing reaches zero oversubscription" 0.0 energy;
  (* Determinism. *)
  let placements' =
    Placer.annealing ~capacity:capacity_1g ~rng:(Rng.create 1) requests
  in
  check Alcotest.bool "deterministic with equal seed" true
    (List.for_all2
       (fun (a : Placer.placement) (b : Placer.placement) ->
         a.Placer.p_tag = b.Placer.p_tag
         && Option.equal ( == ) a.Placer.path b.Placer.path)
       placements placements')

(* --- App_ecmp ---------------------------------------------------------------- *)

let test_path_index_pure () =
  let key =
    Flow_key.make ~src:(ip "10.0.0.2") ~dst:(ip "10.1.0.2") ~src_port:1 ~dst_port:2 ()
  in
  check Alcotest.int "one candidate" 0 (App_ecmp.path_index App_ecmp.Five_tuple key 1);
  let chosen = App_ecmp.path_index App_ecmp.Five_tuple key 64 in
  check Alcotest.bool "below the count" true (0 <= chosen && chosen < 64);
  check Alcotest.int "deterministic" chosen
    (App_ecmp.path_index App_ecmp.Five_tuple key 64);
  (* src/dst mode must ignore port changes. *)
  let key' = { key with Flow_key.src_port = 999 } in
  check Alcotest.int "src_dst ignores ports"
    (App_ecmp.path_index App_ecmp.Src_dst key 64)
    (App_ecmp.path_index App_ecmp.Src_dst key' 64)

(* Single-switch environment: h0 - s0 - h1. *)
let mini_env_rig () =
  let topo = Topology.create () in
  let h0 = Topology.add_node topo ~ip:(ip "10.0.0.1") Topology.Host in
  let s0 = Topology.add_node topo Topology.Switch in
  let h1 = Topology.add_node topo ~ip:(ip "10.0.0.2") Topology.Host in
  ignore (Topology.add_duplex topo ~capacity:1e9 h0 s0);
  ignore (Topology.add_duplex topo ~capacity:1e9 s0 h1);
  let ports =
    List.mapi (fun i (l : Topology.link) -> (i + 1, l.Topology.link_id))
      (Topology.out_links topo s0.Topology.id)
  in
  let sched = Sched.create () in
  let ctrl = Controller.create (Process.create sched) in
  let chan = Channel.create sched ~latency:(Time.of_ms 1) () in
  let sw_end, ctrl_end = Channel.endpoints chan in
  let agent =
    Switch.create (Process.create sched) ~dpid:s0.Topology.id ~ports
      sw_end
  in
  Switch.start agent;
  Controller.connect ctrl ctrl_end;
  let env =
    Env.create ~topo
      ~dpid_of_node:(fun n -> if n = s0.Topology.id then Some n else None)
      ~node_of_dpid:(fun d -> Some d)
      ~port_of_link:(fun l ->
        List.find_map (fun (p, l') -> if l = l' then Some p else None) ports)
      ()
  in
  (sched, ctrl, agent, env, topo, h0, h1)

let test_env_helpers () =
  let _, _, _, env, _, h0, h1 = mini_env_rig () in
  check (Alcotest.option Alcotest.int) "host_of_ip" (Some h0.Topology.id)
    (Env.host_of_ip env (ip "10.0.0.1"));
  check (Alcotest.option Alcotest.int) "edge switch" (Some 1)
    (Env.edge_switch_of_host env h0.Topology.id);
  check (Alcotest.list Alcotest.int) "edge dpids" [ 1 ] (Env.edge_dpids env);
  let paths = Env.ecmp_paths env ~src:h0.Topology.id ~dst:h1.Topology.id in
  check Alcotest.int "one path" 1 (List.length paths)

let test_app_ecmp_reactive () =
  let sched, ctrl, agent, env, _, _, _ = mini_env_rig () in
  let app = App_ecmp.install ctrl env in
  let packet_outs = ref 0 in
  Switch.on_packet_out agent (fun _ -> incr packet_outs);
  (* Let the handshake finish, then raise a packet_in with a real
     frame. *)
  let key =
    Flow_key.make ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ~src_port:1234
      ~dst_port:80 ()
  in
  let frame =
    Packet.encode
      (Packet.udp ~src_mac:(Mac.of_index 1) ~dst_mac:(Mac.of_index 2)
         ~src:key.Flow_key.src ~dst:key.Flow_key.dst
         ~src_port:key.Flow_key.src_port ~dst_port:key.Flow_key.dst_port
         (Bytes.make 10 'x'))
  in
  ignore
    (Sched.schedule_at sched (Time.of_ms 20) (fun () ->
         Switch.packet_in agent ~in_port:1 frame));
  ignore (Sched.run ~until:(Time.of_ms 200) sched);
  check Alcotest.int "flow routed" 1 (App_ecmp.flows_routed app);
  check Alcotest.bool "path recorded" true (App_ecmp.path_of app key <> None);
  check Alcotest.int "entry installed" 1 (Flow_table.size (Switch.table agent));
  check Alcotest.int "packet released" 1 !packet_outs;
  (* The installed entry must output towards h1 (port 2 = the second
     out-link of s0). *)
  match Flow_table.lookup (Switch.table agent) (Ofmatch.fields_of_key key) with
  | Some e ->
      check Alcotest.bool "outputs towards h1" true
        (List.exists (fun a -> Action.equal a (Action.Output 2)) e.Flow_table.actions)
  | None -> Alcotest.fail "flow entry missing"

(* --- Env path queries vs the full shortest-path tree ------------------------ *)

let path_env topo =
  Env.create ~topo ~dpid_of_node:Option.some ~node_of_dpid:Option.some
    ~port_of_link:(fun _ -> None) ()

let link_ids paths =
  List.map (List.map (fun (l : Topology.link) -> l.Topology.link_id)) paths

(* Hop counts from [src] over links not in [down], the test's own model
   of the link state, from a plain queue BFS that shares no code with
   Spf. *)
let reference_dist topo ~down ~src =
  let dist = Array.make (Topology.n_nodes topo) max_int in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun (l : Topology.link) ->
        let v = l.Topology.dst in
        if dist.(v) = max_int && not (Hashtbl.mem down l.Topology.link_id)
        then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
      (Topology.out_links topo u)
  done;
  dist

(* The oracle: every shortest path of the full tree that the reference
   BFS gives over the up links. *)
let tree_paths topo ~down ~src ~dst =
  let dist = reference_dist topo ~down ~src in
  let preds = Array.make (Topology.n_nodes topo) [] in
  for id = Topology.n_links topo - 1 downto 0 do
    let l = Topology.link topo id in
    let d = dist.(l.Topology.src) in
    if d <> max_int && dist.(l.Topology.dst) = d + 1 && not (Hashtbl.mem down id) then
      preds.(l.Topology.dst) <- l :: preds.(l.Topology.dst)
  done;
  Spf.ecmp_paths { Spf.src; dist; preds } topo ~dst

(* [Env.ecmp_pick] is told the number of [paths] and builds path [i]
   for each index [i] below it; with no path it returns [None] without
   asking for an index. *)
let pick_agrees env paths ~src ~dst =
  let n = List.length paths in
  let told = ref 0 in
  let pick i =
    Env.ecmp_pick env ~src ~dst (fun count ->
        told := count;
        i)
  in
  if n = 0 then pick 0 = None && !told = 0
  else
    List.for_all
      (fun i ->
        match pick i with
        | Some p -> !told = n && link_ids [ p ] = link_ids [ List.nth paths i ]
        | None -> false)
      (List.init n Fun.id)

(* Equal to the tree's paths, and consistent with the reference BFS:
   no path when src = dst or dst is cut off, otherwise at least one,
   each of the shortest length and over up links only. The pick agrees
   with the enumeration index by index. *)
let same_paths env ~down ~src ~dst =
  let topo = Env.topo env in
  let paths = Env.ecmp_paths env ~src ~dst in
  let hops = (reference_dist topo ~down ~src).(dst) in
  link_ids paths = link_ids (tree_paths topo ~down ~src ~dst)
  && (paths = []) = (src = dst || hops = max_int)
  && List.for_all
       (fun p ->
         Spf.path_length p = hops
         && List.for_all
              (fun (l : Topology.link) -> not (Hashtbl.mem down l.Topology.link_id))
              p)
       paths
  && pick_agrees env paths ~src ~dst

(* Marks a link down or up in both the Env and the oracle's model. *)
let set_link env down id up =
  Env.set_link_usable env id up;
  if up then Hashtbl.remove down id else Hashtbl.replace down id ()

let path_topology (shape, seed) =
  match shape with
  | 0 | 1 | 2 -> (Fat_tree.build ~k:(4 + (2 * shape)) ()).Fat_tree.topo
  | 3 ->
      (Leaf_spine.build ~leaves:(2 + (seed mod 4)) ~spines:(1 + (seed mod 3))
         ~hosts_per_leaf:(1 + (seed mod 2)) ())
        .Leaf_spine.topo
  | _ -> (Wan.random_gnp ~seed ~n:(2 + (seed mod 19)) ~p:0.25 ()).Wan.topo

(* A host behind the same switch as [src]: some one-link node whose
   link leads where [src]'s one link leads, chosen by [i]; [src] itself
   when it has several links or no sibling. *)
let sibling topo src i =
  match Topology.out_links topo src with
  | [ up ] -> (
      let behind =
        List.filter_map
          (fun (l : Topology.link) ->
            match Topology.out_links topo l.Topology.dst with
            | [ _ ] -> Some l.Topology.dst
            | _ -> None)
          (Topology.out_links topo up.Topology.dst)
      in
      match behind with
      | [] -> src
      | _ -> List.nth behind (i mod List.length behind))
  | _ -> src

(* An op is one of:
   - a link toggle (down with probability 1/2, so links also come back
     up), drawn twice as often as each other op;
   - a query, [same_paths] between two nodes of any kind;
   - a Hedera-style [ecmp_paths] alone, checked against the tree;
   - a pick alone from a node of any kind, checked against the tree
     index by index with no [ecmp_paths] in between;
   - the same pick from a sibling of the last pick's source, so
     consecutive picks share the search from one edge switch, across
     toggles and after [ecmp_paths] from elsewhere.
   Endpoints are drawn modulo the node count, so src = dst and switch
   endpoints occur; down links make some pairs unreachable. *)
let prop_env_paths_match_tree =
  qtest ~count:150 "env: ecmp_paths equals the tree's paths under link toggles"
    QCheck2.Gen.(
      pair
        (pair (int_bound 4) (int_bound 10_000))
        (list_size (int_range 1 60)
           (quad (int_bound 5) (int_bound 100_000) (int_bound 100_000) bool)))
    (fun (topo_case, ops) ->
      let topo = path_topology topo_case in
      let env = path_env topo and down = Hashtbl.create 16 in
      let n = Topology.n_nodes topo and nl = Topology.n_links topo in
      let last = ref 0 in
      let pick ~src ~dst =
        last := src;
        pick_agrees env (tree_paths topo ~down ~src ~dst) ~src ~dst
      in
      List.for_all
        (fun (op, a, b, up) ->
          let src = a mod n and dst = b mod n in
          match op with
          | 0 | 1 ->
              set_link env down (a mod nl) up;
              true
          | 2 -> same_paths env ~down ~src ~dst
          | 3 ->
              link_ids (Env.ecmp_paths env ~src ~dst)
              = link_ids (tree_paths topo ~down ~src ~dst)
          | 4 -> pick ~src ~dst
          | _ -> pick ~src:(sibling topo !last a) ~dst)
        ops)

let prop_bfs_distance_matches_floyd_warshall =
  qtest ~count:30 "env: BFS distance equals Floyd-Warshall hops"
    QCheck2.Gen.(pair (int_bound 4) (int_bound 10_000))
    (fun topo_case ->
      let topo = path_topology topo_case in
      let fw = Horse_test_support.all_pairs_hops topo in
      let n = Topology.n_nodes topo in
      List.for_all
        (fun src ->
          let tree = Spf.shortest_tree topo ~src in
          List.for_all
            (fun dst ->
              Option.value (Spf.distance tree dst) ~default:max_int
              = fw.(src).(dst))
            (List.init n Fun.id))
        (List.init n Fun.id))

(* k=18 inter-pod pairs have 81 equal-cost paths, so the 64-path cap
   truncates the enumeration, and the hash index of App_ecmp depends on
   the order of what is left. *)
let test_env_paths_truncated () =
  let ft = Fat_tree.build ~k:18 () in
  let env = path_env ft.Fat_tree.topo and down = Hashtbl.create 1 in
  let src = ft.Fat_tree.hosts.(0).Topology.id in
  let dst = ft.Fat_tree.hosts.(Array.length ft.Fat_tree.hosts - 1).Topology.id in
  check Alcotest.int "truncated to 64" 64
    (List.length (Env.ecmp_paths env ~src ~dst));
  check Alcotest.bool "same paths as the tree" true
    (same_paths env ~down ~src ~dst);
  (* Take down the first path's core uplink: the survivors shift. *)
  let first = List.hd (Env.ecmp_paths env ~src ~dst) in
  set_link env down (List.nth first 2).Topology.link_id false;
  check Alcotest.bool "same paths with a core link down" true
    (same_paths env ~down ~src ~dst)

(* A host with two uplinks, to both edge switches of its pod, has twice
   the inter-pod paths of its neighbours: a search from the far end of
   one uplink would find half of them. It is searched from itself, and
   so is a switch source; picks from a single-homed neighbour before and
   after it still agree with the tree. *)
let test_env_pick_multihomed () =
  let ft = Fat_tree.build ~k:4 () in
  let topo = ft.Fat_tree.topo and hosts = ft.Fat_tree.hosts in
  let h0 = hosts.(0) and h1 = hosts.(1) in
  ignore (Topology.add_duplex topo ~capacity:1e9 h0 ft.Fat_tree.edges.(0).(1));
  let env = path_env topo and down = Hashtbl.create 1 in
  let dst = hosts.(Array.length hosts - 1).Topology.id in
  check Alcotest.int "two uplinks double the paths" 8
    (List.length (Env.ecmp_paths env ~src:h0.Topology.id ~dst));
  List.iter
    (fun (name, src) ->
      check Alcotest.bool name true (same_paths env ~down ~src ~dst))
    [
      ("single-homed neighbour", h1.Topology.id);
      ("multi-homed host", h0.Topology.id);
      ("single-homed neighbour again", h1.Topology.id);
      ("edge switch", ft.Fat_tree.edges.(0).(0).Topology.id);
      ("core switch", ft.Fat_tree.cores.(0).Topology.id);
    ];
  let first_uplink = List.hd (Topology.out_links topo h0.Topology.id) in
  set_link env down first_uplink.Topology.link_id false;
  check Alcotest.bool "multi-homed host, first uplink down" true
    (same_paths env ~down ~src:h0.Topology.id ~dst)

let () =
  Alcotest.run "horse_controller"
    [
      ( "framework",
        [
          Alcotest.test_case "handshake" `Quick test_handshake_and_lookup;
          Alcotest.test_case "stats correlation" `Quick test_stats_correlation;
          Alcotest.test_case "flow mod delivery" `Quick test_flow_mod_reaches_switch;
        ] );
      ( "demand",
        [
          Alcotest.test_case "single flow" `Quick test_demand_single_flow;
          Alcotest.test_case "sender limited" `Quick test_demand_sender_limited;
          Alcotest.test_case "receiver limited" `Quick test_demand_receiver_limited;
          Alcotest.test_case "mixed" `Quick test_demand_mixed;
          Alcotest.test_case "asymmetric" `Quick test_demand_asymmetric;
          Alcotest.test_case "permutation saturates" `Quick
            test_demand_permutation_saturates;
          Alcotest.test_case "big flow threshold" `Quick test_big_flows_threshold;
        ] );
      ( "placer",
        [
          Alcotest.test_case "gff spreads" `Quick test_gff_spreads;
          Alcotest.test_case "gff no fit" `Quick test_gff_no_fit;
          Alcotest.test_case "oversubscription" `Quick test_oversubscription;
          Alcotest.test_case "annealing" `Quick test_annealing_finds_spread;
        ] );
      ( "apps",
        [
          Alcotest.test_case "path_index pure" `Quick test_path_index_pure;
          Alcotest.test_case "env helpers" `Quick test_env_helpers;
          Alcotest.test_case "ecmp reactive" `Quick test_app_ecmp_reactive;
        ] );
      ( "paths",
        [
          prop_env_paths_match_tree;
          prop_bfs_distance_matches_floyd_warshall;
          Alcotest.test_case "k=18 truncation" `Quick test_env_paths_truncated;
          Alcotest.test_case "multi-homed source" `Quick
            test_env_pick_multihomed;
        ] );
    ]
