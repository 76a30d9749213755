(* End-to-end tests for horse_core: the Connection Manager's FTI
   triggering, BGP-routed and OpenFlow fabrics on Fat-Trees, and the
   full demonstration scenarios. *)

open Horse_net
open Horse_engine
open Horse_emulation
open Horse_topo
open Horse_dataplane
open Horse_core

let check = Alcotest.check

(* --- Connection manager --------------------------------------------------- *)

let test_cm_triggers_fti () =
  let sched = Sched.create () in
  let trace = Trace.create () in
  let cm = Connection_manager.create sched trace in
  let chan = Connection_manager.control_channel ~name:"test" cm in
  let a, b = Channel.endpoints chan in
  Channel.set_receiver b (fun _ -> ());
  ignore a;
  check Alcotest.int "channel counted" 1 (Connection_manager.channels_created cm);
  ignore
    (Sched.schedule_at sched (Time.of_ms 100) (fun () ->
         Channel.send a (Bytes.of_string "bgp-ish")));
  let stats = Sched.run ~until:(Time.of_sec 3.0) sched in
  check Alcotest.int "message observed" 1 (Connection_manager.messages_observed cm);
  check Alcotest.int "bytes observed" 7 (Connection_manager.bytes_observed cm);
  check (Alcotest.float 1e-6) "quiet_since" 0.1
    (Time.to_sec (Connection_manager.quiet_since cm));
  (* One transition into FTI (at the send) and one back to DES. *)
  check Alcotest.int "two transitions" 2 (List.length stats.Sched.transitions);
  check Alcotest.bool "spent time in FTI" true (stats.Sched.fti_increments > 0)

(* --- Routed fabric (BGP) --------------------------------------------------- *)

let build_bgp_fat_tree ?(k = 4) () =
  let ft = Fat_tree.build ~k () in
  let exp = Experiment.create ft.Fat_tree.topo in
  let fabric =
    Routed_fabric.build ~cm:(Experiment.cm exp)
      ~originate:(Fat_tree.edge_subnets ft) ft.Fat_tree.topo
  in
  (ft, exp, fabric)

let test_bgp_fabric_converges () =
  let ft, exp, fabric = build_bgp_fat_tree () in
  check Alcotest.int "session per inter-switch link" 32
    (Routed_core.sessions_expected fabric);
  let converged_at = ref None in
  Experiment.at exp Time.zero (fun () -> Routed_fabric.start fabric);
  Routed_fabric.when_converged fabric (fun () ->
      converged_at := Some (Sched.now (Experiment.scheduler exp)));
  let stats = Experiment.run ~until:(Time.of_sec 60.0) exp in
  check Alcotest.bool "converged" true (Routed_core.is_converged fabric);
  (match !converged_at with
  | Some at ->
      check Alcotest.bool "converged quickly (< 5s virtual)" true
        Time.(at < Time.of_sec 5.0)
  | None -> Alcotest.fail "never converged");
  check Alcotest.int "all sessions established" 32
    (Routed_core.sessions_established fabric);
  (* The engine must have gone FTI during convergence and returned to
     DES afterwards. *)
  check Alcotest.bool "entered FTI" true (stats.Sched.fti_increments > 0);
  (match List.rev stats.Sched.transitions with
  | last :: _ ->
      check Alcotest.string "back to DES" "DES" (Sched.mode_to_string last.Sched.to_mode)
  | [] -> Alcotest.fail "no transitions");
  (* Every host can reach every other host. *)
  let hosts = ft.Fat_tree.hosts in
  let errors = ref 0 in
  Array.iteri
    (fun i (src : Topology.node) ->
      Array.iteri
        (fun j (dst : Topology.node) ->
          if i <> j then
            let key =
              Flow_key.make
                ~src:(Option.get src.Topology.ip)
                ~dst:(Option.get dst.Topology.ip)
                ()
            in
            match Routed_fabric.path_for fabric key with
            | Ok path ->
                if Spf.path_nodes path = [] then incr errors
            | Error _ -> incr errors)
        hosts)
    hosts;
  check Alcotest.int "all pairs routable" 0 !errors

let test_bgp_fabric_ecmp_spreads_paths () =
  let ft, exp, fabric = build_bgp_fat_tree () in
  Experiment.at exp Time.zero (fun () -> Routed_fabric.start fabric);
  ignore (Experiment.run ~until:(Time.of_sec 30.0) exp);
  (* Inter-pod routes on an edge switch must carry a multipath FIB
     group (k/2 = 2 aggregation uplinks). *)
  let edge = ft.Fat_tree.edges.(0).(0) in
  let table = Routed_fabric.table fabric edge.Topology.id in
  (match Fwd.lookup table (Ipv4.of_octets 10 3 1 2) with
  | Some group ->
      check Alcotest.int "edge uplink ECMP group" 2 (List.length group)
  | None -> Alcotest.fail "no route to remote pod");
  (* Different (src,dst) pairs should use both uplinks eventually. *)
  let first_links = Hashtbl.create 8 in
  Array.iter
    (fun (dst : Topology.node) ->
      if dst.Topology.id <> ft.Fat_tree.hosts.(0).Topology.id then begin
        let key =
          Flow_key.make
            ~src:(Option.get ft.Fat_tree.hosts.(0).Topology.ip)
            ~dst:(Option.get dst.Topology.ip)
            ()
        in
        match Routed_fabric.path_for fabric key with
        | Ok (_ :: (second : Topology.link) :: _) ->
            Hashtbl.replace first_links second.Topology.dst ()
        | Ok _ | Error _ -> ()
      end)
    ft.Fat_tree.hosts;
  check Alcotest.bool "uses both aggregation switches" true
    (Hashtbl.length first_links >= 2)

let test_bgp_fabric_link_failure_withdraw () =
  (* Kill one aggregation switch's process: edge loses one uplink;
     routes must reconverge to the surviving paths. *)
  let ft, exp, fabric = build_bgp_fat_tree () in
  Experiment.at exp Time.zero (fun () -> Routed_fabric.start fabric);
  ignore (Experiment.run ~until:(Time.of_sec 10.0) exp);
  let agg = ft.Fat_tree.aggs.(0).(0) in
  let speaker = Option.get (Routed_core.daemon fabric agg.Topology.id) in
  Experiment.at exp (Time.of_sec 11.0) (fun () ->
      Horse_bgp.Speaker.shutdown speaker);
  ignore (Experiment.run ~until:(Time.of_sec 30.0) exp);
  let edge = ft.Fat_tree.edges.(0).(0) in
  let table = Routed_fabric.table fabric edge.Topology.id in
  match Fwd.lookup table (Ipv4.of_octets 10 3 1 2) with
  | Some group ->
      check Alcotest.int "ECMP group shrank to surviving uplink" 1
        (List.length group)
  | None -> Alcotest.fail "destination unreachable after failure"

let test_bgp_fabric_session_flap () =
  (* Control-plane fault: cut the edge(0,0)-agg(0,0) session, watch
     the ECMP group shrink, restore it, watch the group heal. *)
  let ft, exp, fabric = build_bgp_fat_tree () in
  Experiment.at exp Time.zero (fun () -> Routed_fabric.start fabric);
  ignore (Experiment.run ~until:(Time.of_sec 5.0) exp);
  let edge = ft.Fat_tree.edges.(0).(0) in
  let agg = ft.Fat_tree.aggs.(0).(0) in
  let remote = Ipv4.of_octets 10 3 1 2 in
  let group_size () =
    match Fwd.lookup (Routed_fabric.table fabric edge.Topology.id) remote with
    | Some group -> List.length group
    | None -> 0
  in
  check Alcotest.int "two uplinks before the fault" 2 (group_size ());
  check Alcotest.bool "unknown pair rejected" false
    (Routed_fabric.fail_link fabric ~a:edge.Topology.id ~b:999999);
  Experiment.at exp (Time.of_sec 6.0) (fun () ->
      check Alcotest.bool "session existed" true
        (Routed_fabric.fail_link fabric ~a:edge.Topology.id ~b:agg.Topology.id));
  ignore (Experiment.run ~until:(Time.of_sec 10.0) exp);
  check Alcotest.int "one uplink after the fault" 1 (group_size ());
  Experiment.at exp (Time.of_sec 11.0) (fun () ->
      check Alcotest.bool "restore accepted" true
        (Routed_fabric.restore_link fabric ~a:edge.Topology.id ~b:agg.Topology.id));
  ignore (Experiment.run ~until:(Time.of_sec 20.0) exp);
  check Alcotest.int "healed back to two uplinks" 2 (group_size ())

let test_bgp_fabric_fail_twice () =
  (* A fault on a session already in that state is a no-op, reported
     as [false] so the injector records it as skipped. *)
  let ft, exp, fabric = build_bgp_fat_tree () in
  Experiment.at exp Time.zero (fun () -> Routed_fabric.start fabric);
  ignore (Experiment.run ~until:(Time.of_sec 5.0) exp);
  let a = ft.Fat_tree.edges.(0).(0).Topology.id in
  let b = ft.Fat_tree.aggs.(0).(0).Topology.id in
  check Alcotest.bool "restoring an up session" false
    (Routed_fabric.restore_link fabric ~a ~b);
  check Alcotest.bool "first fail" true (Routed_fabric.fail_link fabric ~a ~b);
  check Alcotest.bool "second fail" false (Routed_fabric.fail_link fabric ~a ~b)

let test_bgp_random_wans_converge () =
  (* Random connected WANs: the fabric always converges and every FIB
     walk reaches its destination without looping. Routers have no
     hosts here, so walk the tables directly. *)
  List.iter
    (fun seed ->
      let wan = Wan.random_gnp ~seed ~n:10 ~p:0.25 () in
      let exp = Experiment.create wan.Wan.topo in
      let fabric =
        Routed_fabric.build ~cm:(Experiment.cm exp)
          ~originate:(fun node -> [ Wan.router_prefix wan node ])
          wan.Wan.topo
      in
      Experiment.at exp Time.zero (fun () -> Routed_fabric.start fabric);
      ignore (Experiment.run ~until:(Time.of_sec 30.0) exp);
      if not (Routed_core.is_converged fabric) then
        Alcotest.failf "seed %d: not converged" seed;
      (* FIB walk between every pair. *)
      let n = Array.length wan.Wan.routers in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst then begin
            let target = Prefix.network (Wan.router_prefix wan dst) in
            let rec walk node hops =
              if hops > 20 then Alcotest.failf "seed %d: loop %d->%d" seed src dst
              else if node = dst then ()
              else
                match
                  Fwd.lookup_select
                    (Routed_fabric.table fabric node)
                    target ~hash:(17 * src)
                with
                | None -> Alcotest.failf "seed %d: no route %d->%d" seed src dst
                | Some link_id ->
                    walk (Topology.link wan.Wan.topo link_id).Topology.dst (hops + 1)
            in
            walk src 0
          end
        done
      done)
    [ 1; 2; 3; 4; 5 ]

(* A followed flow on a BGP triangle, with r0's route to r1's prefix
   rewritten by hand: a detour re-steers it, a removal leaves it on its
   path, a restore within 2 s re-steers it back and keeps it, and a
   removal for good stops it exactly 2 s later. *)
let test_bgp_fabric_follow () =
  let wan = Wan.ring 3 in
  let hosts = Wan.attach_hosts wan in
  let topo = wan.Wan.topo in
  let exp = Experiment.create topo in
  let fabric =
    Routed_fabric.build ~cm:(Experiment.cm exp)
      ~originate:(fun node -> if node < 3 then [ Wan.router_prefix wan node ] else [])
      topo
  in
  Experiment.at exp Time.zero (fun () -> Routed_fabric.start fabric);
  ignore (Experiment.run ~until:(Time.of_sec 5.0) exp);
  let r i = wan.Wan.routers.(i).Topology.id in
  let link a b =
    (Option.get (Topology.find_link topo ~src:(r a) ~dst:(r b))).Topology.link_id
  in
  let key =
    Flow_key.make
      ~src:(Option.get hosts.(0).Topology.ip)
      ~dst:(Option.get hosts.(1).Topology.ip)
      ()
  in
  let fluid = Experiment.fluid exp in
  let flow =
    Fluid.start_flow fluid ~key ~path:(Result.get_ok (Routed_fabric.path_for fabric key))
  in
  Routed_core.follow fabric fluid [ flow ];
  let routers () =
    List.filter_map
      (fun (l : Topology.link) ->
        if l.Topology.dst < 3 then Some (Topology.node topo l.Topology.dst).Topology.name
        else None)
      flow.Flow.path
  in
  let r1 = Wan.router_prefix wan 1 in
  let write at next_hops =
    Experiment.at exp (Time.of_sec at) (fun () ->
        Routed_core.write fabric (r 0) r1 next_hops)
  in
  let expect at what path =
    Experiment.at exp (Time.of_sec at) (fun () ->
        check Alcotest.bool (what ^ ": active") true flow.Flow.active;
        check (Alcotest.list Alcotest.string) (what ^ ": path") path (routers ()))
  in
  expect 9.0 "converged" [ "r0"; "r1" ];
  write 10.0 [ link 0 2 ];
  expect 10.5 "detour" [ "r0"; "r2"; "r1" ];
  write 11.0 [];
  expect 11.5 "no route" [ "r0"; "r2"; "r1" ];
  write 12.0 [ link 0 1 ];
  expect 12.5 "restored" [ "r0"; "r1" ];
  expect 14.0 "past the first loss's 2 s" [ "r0"; "r1" ];
  write 20.0 [];
  ignore (Experiment.run ~until:(Time.of_sec 30.0) exp);
  check Alcotest.bool "stopped" false flow.Flow.active;
  check (Alcotest.option Alcotest.int) "stopped 2 s after the removal" (Some 22_000_000)
    (Option.map Time.to_us flow.Flow.stopped_at)

(* --- SDN fabric -------------------------------------------------------------- *)

let test_sdn_fabric_reactive_routing () =
  let ft = Fat_tree.build ~k:4 () in
  let exp = Experiment.create ft.Fat_tree.topo in
  let fabric =
    Sdn_fabric.build ~cm:(Experiment.cm exp) ~fluid:(Experiment.fluid exp)
      ft.Fat_tree.topo
  in
  let ctrl = Sdn_fabric.controller fabric in
  ignore
    (Horse_controller.App_ecmp.install ctrl (Sdn_fabric.env fabric));
  let key =
    Flow_key.make
      ~src:(Fat_tree.host_ip ft 0)
      ~dst:(Fat_tree.host_ip ft 15)
      ~src_port:1000 ~dst_port:2000 ()
  in
  let got_path = ref None in
  Experiment.at exp (Time.of_ms 20) (fun () ->
      Sdn_fabric.route_flow fabric key ~on_ready:(fun path ->
          got_path := Some path));
  let stats = Experiment.run ~until:(Time.of_sec 5.0) exp in
  check Alcotest.bool "handshake completed" true (Sdn_fabric.handshaken fabric);
  (match !got_path with
  | Some path ->
      check Alcotest.int "6-hop inter-pod path" 6 (List.length path);
      (* The same key resolves from the tables now without side
         effects. *)
      (match Sdn_fabric.resolve_now fabric key with
      | Some path' ->
          check Alcotest.bool "resolve_now agrees" true
            (List.equal
               (fun (a : Topology.link) b -> a.Topology.link_id = b.Topology.link_id)
               path path')
      | None -> Alcotest.fail "resolve_now missed after install")
  | None -> Alcotest.fail "flow never routed");
  check Alcotest.int "no pending flows" 0 (Sdn_fabric.pending_flows fabric);
  check Alcotest.bool "exactly one packet_in" true (Sdn_fabric.packet_ins fabric >= 1);
  check Alcotest.bool "control plane pulled clock into FTI" true
    (stats.Sched.fti_increments > 0)

let test_sdn_fabric_link_failure () =
  (* Route a flow, cut a link on its path: PORT_STATUS reaches the
     controller, the ECMP app reroutes around it, and the tables
     resolve a path avoiding the link. Restore rebalances back. *)
  let ft = Fat_tree.build ~k:4 () in
  let exp = Experiment.create ft.Fat_tree.topo in
  let fabric =
    Sdn_fabric.build ~cm:(Experiment.cm exp) ~fluid:(Experiment.fluid exp)
      ft.Fat_tree.topo
  in
  let ctrl = Sdn_fabric.controller fabric in
  let app = Horse_controller.App_ecmp.install ctrl (Sdn_fabric.env fabric) in
  let rerouted = ref [] in
  Horse_controller.App_ecmp.on_reroute app (fun key path ->
      rerouted := (key, path) :: !rerouted);
  let key =
    Flow_key.make
      ~src:(Fat_tree.host_ip ft 0)
      ~dst:(Fat_tree.host_ip ft 15)
      ~src_port:1000 ~dst_port:2000 ()
  in
  let original = ref None in
  Experiment.at exp (Time.of_ms 20) (fun () ->
      Sdn_fabric.route_flow fabric key ~on_ready:(fun path ->
          original := Some path));
  ignore (Experiment.run ~until:(Time.of_sec 2.0) exp);
  let original =
    match !original with Some p -> p | None -> Alcotest.fail "never routed"
  in
  (* Cut the second hop of the path (edge -> agg, a link with ECMP
     alternatives), through the fabric's fault target. *)
  let cut =
    match original with _ :: (l : Topology.link) :: _ -> l | _ -> Alcotest.fail "short path"
  in
  let target = Sdn_fabric.fault_target fabric in
  let name id = (Topology.node ft.Fat_tree.topo id).Topology.name in
  let a = name cut.Topology.src and b = name cut.Topology.dst in
  Experiment.at exp (Time.of_sec 3.0) (fun () ->
      check Alcotest.bool "fail accepted" true
        (target.Horse_faults.Injector.link_down ~a ~b));
  ignore (Experiment.run ~until:(Time.of_sec 5.0) exp);
  check Alcotest.int "app rerouted the flow" 1
    (Horse_controller.App_ecmp.reroutes app);
  (match Sdn_fabric.resolve_now fabric key with
  | Some path ->
      check Alcotest.bool "new path avoids the cut link" false
        (List.exists
           (fun (l : Topology.link) ->
             l.Topology.link_id = cut.Topology.link_id
             || l.Topology.link_id = cut.Topology.peer)
           path);
      check Alcotest.int "still a shortest path" (List.length original)
        (List.length path)
  | None -> Alcotest.fail "unresolvable after reroute");
  (* Restore and check the fabric accepts it. *)
  Experiment.at exp (Time.of_sec 6.0) (fun () ->
      check Alcotest.bool "restore accepted" true
        (target.Horse_faults.Injector.link_up ~a ~b));
  ignore (Experiment.run ~until:(Time.of_sec 8.0) exp);
  check Alcotest.bool "flow still resolvable" true
    (Sdn_fabric.resolve_now fabric key <> None)

let test_sdn_fabric_key_index () =
  (* The 5-tuple lookup behind the edge switches' flow statistics: the
     newest active flow of a key wins, an older one reappears when the
     newer stops, a stopped flow is never returned, and the index is
     rebuilt only after the flow set changed. *)
  let ft = Fat_tree.build ~k:4 () in
  let exp = Experiment.create ft.Fat_tree.topo in
  let fluid = Experiment.fluid exp in
  let fabric = Sdn_fabric.build ~cm:(Experiment.cm exp) ~fluid ft.Fat_tree.topo in
  let key i =
    Flow_key.make
      ~src:(Fat_tree.host_ip ft 0)
      ~dst:(Fat_tree.host_ip ft 15)
      ~src_port:(1000 + i) ~dst_port:2000 ()
  in
  let start i = Fluid.start_flow fluid ~key:(key i) ~path:[] in
  let found i =
    Option.map (fun (f : Flow.t) -> f.Flow.id) (Sdn_fabric.find_flow fabric (key i))
  in
  let id (f : Flow.t) = Some f.Flow.id in
  let rebuilds want what = check Alcotest.int what want (Sdn_fabric.key_rebuilds fabric) in
  let lookup = Alcotest.(option int) in
  let fa = start 1 in
  let fb = start 2 in
  let fdup = start 1 in
  check lookup "newest duplicate wins" (id fdup) (found 1);
  check lookup "other key" (id fb) (found 2);
  check lookup "unknown key" None (found 9);
  rebuilds 1 "one rebuild while the flow set is steady";
  Fluid.stop_flow fluid fdup;
  check lookup "older binding reappears" (id fa) (found 1);
  rebuilds 2 "rebuilt after a stop";
  Fluid.stop_flow fluid fa;
  check lookup "key gone once both stopped" None (found 1);
  check lookup "still there" (id fb) (found 2);
  rebuilds 3 "one rebuild per change";
  (* A start and a stop leave the active count as it was; the stamp
     still sees the change. *)
  let fc = start 3 in
  Fluid.stop_flow fluid fb;
  check lookup "stopped flow not returned" None (found 2);
  check lookup "new flow found" (id fc) (found 3);
  rebuilds 4 "start plus stop is a change"

(* --- Scenarios (the demonstration) ------------------------------------------- *)

let duration = Time.of_sec 20.0

let run_te te =
  Scenario.run (Spec.make ~sample_every:(Time.of_sec 1.0) ~duration (Spec.Fat_tree 4) te)

let check_result_sanity (r : Scenario.result) =
  check Alcotest.int "hosts" 16 r.Scenario.n_hosts;
  check Alcotest.int "all flows started" 16 r.Scenario.flows_started;
  check Alcotest.bool "converged" true (r.Scenario.converged_at <> None);
  check Alcotest.bool "control messages flowed" true (r.Scenario.control_messages > 0);
  (* Delivered within (0, offered]. *)
  check Alcotest.bool "delivered positive" true (r.Scenario.delivered_bits > 0.0);
  check Alcotest.bool "delivered below offered" true
    (r.Scenario.delivered_bits <= r.Scenario.offered_bits *. 1.001);
  (* Aggregate rate can never exceed total host NIC capacity. *)
  check Alcotest.bool "aggregate bounded" true
    (Horse_stats.Series.max_value r.Scenario.aggregate <= 16.2e9)

let test_scenario_bgp () =
  let r = run_te Scenario.Bgp_ecmp in
  check_result_sanity r;
  (* BGP control activity is concentrated at startup; after
     convergence the engine must be in DES (last transition). *)
  match List.rev r.Scenario.sched_stats.Sched.transitions with
  | last :: _ -> check Alcotest.string "ends in DES" "DES" (Sched.mode_to_string last.Sched.to_mode)
  | [] -> Alcotest.fail "no mode transitions"

let test_scenario_sdn () =
  let r = run_te Scenario.Sdn_ecmp in
  check_result_sanity r;
  check Alcotest.bool "converged fast" true
    (match r.Scenario.converged_at with
    | Some at -> Time.(at < Time.of_sec 1.0)
    | None -> false)

let test_scenario_hedera () =
  let r = run_te Scenario.Hedera_gff in
  check_result_sanity r;
  (* Hedera polls every 5 s: over 20 s there are several FTI episodes,
     so there must be strictly more transitions than the one-shot SDN
     case. *)
  let sdn = run_te Scenario.Sdn_ecmp in
  check Alcotest.bool "hedera keeps returning to FTI" true
    (List.length r.Scenario.sched_stats.Sched.transitions
    > List.length sdn.Scenario.sched_stats.Sched.transitions);
  (* And hedera must not underperform plain 5-tuple ECMP. *)
  check Alcotest.bool "hedera >= 0.9x sdn-ecmp goodput" true
    (r.Scenario.delivered_bits >= 0.9 *. sdn.Scenario.delivered_bits)

let test_scenario_p4 () =
  let r = run_te Scenario.P4_ecmp in
  check_result_sanity r;
  (* Table programming happens once up front, then pure DES. *)
  (match List.rev r.Scenario.sched_stats.Sched.transitions with
  | last :: _ ->
      check Alcotest.string "ends in DES" "DES"
        (Sched.mode_to_string last.Sched.to_mode)
  | [] -> Alcotest.fail "no transitions");
  check Alcotest.bool "programmed quickly" true
    (match r.Scenario.converged_at with
    | Some at -> Time.(at < Time.of_sec 1.0)
    | None -> false)

let test_scenario_determinism () =
  let a = run_te Scenario.Bgp_ecmp in
  let b = run_te Scenario.Bgp_ecmp in
  check (Alcotest.float 1.0) "same delivered bits" a.Scenario.delivered_bits
    b.Scenario.delivered_bits;
  check Alcotest.int "same control messages" a.Scenario.control_messages
    b.Scenario.control_messages

let test_scenario_te_ordering () =
  (* The demonstration's qualitative result: finer-grained TE delivers
     at least as much traffic. *)
  let bgp = run_te Scenario.Bgp_ecmp in
  let sdn = run_te Scenario.Sdn_ecmp in
  let hedera = run_te Scenario.Hedera_gff in
  check Alcotest.bool "sdn 5-tuple >= bgp src-dst" true
    (sdn.Scenario.delivered_bits >= 0.95 *. bgp.Scenario.delivered_bits);
  check Alcotest.bool "hedera >= bgp" true
    (hedera.Scenario.delivered_bits >= bgp.Scenario.delivered_bits *. 0.95)

(* --- Spec + Scenario.run: the other topologies and control planes ---------- *)

let test_spec_ospf_fat_tree () =
  let r =
    Scenario.run
      (Spec.make ~sample_every:(Time.of_sec 1.0) ~duration (Spec.Fat_tree 4)
         Spec.Ospf)
  in
  check_result_sanity r;
  check Alcotest.bool "fingerprint" true (r.Scenario.fib_fingerprint <> None)

(* The WAN kill as a one-event plan: flows through the dead router lose
   their route at the crash and are stopped exactly 2 s later; the one
   whose route the reconverged FIBs also lose (at 40.0036 s, when the
   hold timers have expired) follows 2 s after that. *)
let test_spec_wan_kill () =
  let module Plan = Horse_faults.Plan in
  let crash = { Plan.at = Time.of_sec 20.0; action = Plan.Node_crash "r2" } in
  let r =
    Scenario.run
      (Spec.make ~hold_time:(Time.of_sec 30.0) ~sample_every:(Time.of_sec 1.0)
         ~faults:{ Plan.empty with Plan.events = [ crash ] }
         ~duration:(Time.of_sec 60.0) Spec.Abilene Spec.Bgp_ecmp)
  in
  check Alcotest.int "one flow per router" 11 r.Scenario.flows_started;
  check Alcotest.int "no unroutable start" 0 (List.length r.Scenario.unroutable);
  check (Alcotest.list Alcotest.int) "stops, in order"
    [ 22_000_000; 22_000_000; 22_000_000; 42_003_600 ]
    (List.map (fun (at, _) -> Time.to_us at) r.Scenario.stopped);
  check Alcotest.int "crash injected" 1
    (Horse_faults.Injector.injected (Option.get r.Scenario.injector))

(* Work gate on the fluid store, counted in minor words (never wall
   time): a 2,000-class megauser day, set-up included, allocates 115.4
   words per fluid event (a class start, stop or reroute). The budget
   is that plus 15 %. Boxed rates in the solver's flow records and in
   [Flow.t] cost 148.4; keeping five per-flow hash tables in [Fluid]
   cost 288.5. [Gc.minor_words] counts every word allocated so far;
   [Gc.quick_stat] would miss the words of an unfinished minor
   collection. *)
let megauser_words_per_event = 133.0

let test_megauser_words_per_event () =
  let before = Gc.minor_words () in
  let r =
    Scenario.run_wan_megauser ~classes:2000 ~duration:(Time.of_sec 30.0) ()
  in
  let words = Gc.minor_words () -. before in
  let events = r.Scenario.mu_events in
  check Alcotest.bool "the day ran fluid events" true (events > 1000);
  let per_event = words /. float_of_int events in
  if per_event > megauser_words_per_event then
    Alcotest.failf "%.1f minor words per fluid event (budget %.0f)" per_event
      megauser_words_per_event

let test_spec_rejected () =
  let rejects name spec =
    match Scenario.run spec with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  let duration = Time.of_sec 1.0 in
  rejects "traffic on a linear chain"
    (Spec.make ~duration (Spec.Linear { routers = 2; prefixes = 1 }) Spec.Bgp_ecmp);
  rejects "sdn on a wan" (Spec.make ~duration Spec.Abilene Spec.Sdn_ecmp);
  rejects "faults on p4"
    (Spec.make ~faults:Horse_faults.Plan.empty ~duration (Spec.Fat_tree 2) Spec.P4_ecmp)

(* --- Traffic generator (Poisson + FCT) -------------------------------------- *)

let test_traffic_size_distributions () =
  let rng = Rng.create 1 in
  check (Alcotest.float 1e-9) "fixed" 42.0 (Traffic.sample_size rng (Traffic.Fixed 42.0));
  for _ = 1 to 200 do
    let v = Traffic.sample_size rng (Traffic.Uniform (10.0, 20.0)) in
    if v < 10.0 || v > 20.0 then Alcotest.fail "uniform out of range";
    let p = Traffic.sample_size rng (Traffic.Pareto { scale = 5.0; shape = 2.0 }) in
    if p < 5.0 then Alcotest.fail "pareto below scale"
  done;
  (* Pareto mean ~ scale*shape/(shape-1) = 10 for scale 5 shape 2. *)
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Traffic.sample_size rng (Traffic.Pareto { scale = 5.0; shape = 2.0 })
  done;
  let mean = !sum /. float_of_int n in
  check Alcotest.bool "pareto mean plausible" true (mean > 8.0 && mean < 13.0)

let test_traffic_poisson_fct () =
  (* Converged BGP fat-tree, then a websearch-ish Poisson workload;
     check accounting, conservation and sane FCTs. *)
  let ft, exp, fabric = build_bgp_fat_tree () in
  Experiment.at exp Time.zero (fun () -> Routed_fabric.start fabric);
  ignore (Experiment.run ~until:(Time.of_sec 5.0) exp);
  let gen =
    Traffic.poisson ~exp ~hosts:ft.Fat_tree.hosts
      ~route:(fun key -> Routed_fabric.path_for fabric key)
      ~arrival_rate:200.0 ~sizes:(Traffic.Uniform (1e6, 10e6))
      ~until:(Time.of_sec 15.0) ()
  in
  ignore (Experiment.run ~until:(Time.of_sec 30.0) exp);
  check Alcotest.bool "many arrivals" true (Traffic.arrivals gen > 1500);
  check Alcotest.int "all routable" 0 (Traffic.unroutable gen);
  check Alcotest.bool "nearly all completed by +15s drain" true
    (Traffic.in_flight gen < 5);
  (* Ideal FCT for <=10 Mbit at 1 Gbps is <= 10 ms; congestion can
     stretch it but not into seconds at this load. *)
  let fcts = Traffic.fct_seconds gen in
  check Alcotest.int "records match completions" (Traffic.completions gen)
    (List.length fcts);
  List.iter
    (fun fct ->
      if fct <= 0.0 || fct > 5.0 then Alcotest.failf "implausible FCT %f" fct)
    fcts;
  List.iter
    (fun s -> if s < 0.999 then Alcotest.failf "slowdown below ideal: %f" s)
    (Traffic.slowdowns gen);
  (* Conservation: the fluid engine delivered at least the bits of the
     completed flows. *)
  let completed_bits =
    List.fold_left (fun acc r -> acc +. r.Traffic.size_bits) 0.0
      (Traffic.records gen)
  in
  check Alcotest.bool "delivered >= completed sizes" true
    (Fluid.total_delivered_bits (Experiment.fluid exp) >= completed_bits *. 0.999)

let test_traffic_determinism () =
  let run () =
    let ft, exp, fabric = build_bgp_fat_tree () in
    Experiment.at exp Time.zero (fun () -> Routed_fabric.start fabric);
    ignore (Experiment.run ~until:(Time.of_sec 5.0) exp);
    let gen =
      Traffic.poisson ~exp ~hosts:ft.Fat_tree.hosts
        ~route:(fun key -> Routed_fabric.path_for fabric key)
        ~arrival_rate:100.0 ~sizes:Traffic.websearch
        ~until:(Time.of_sec 10.0) ()
    in
    ignore (Experiment.run ~until:(Time.of_sec 20.0) exp);
    (Traffic.arrivals gen, Traffic.completions gen, Traffic.fct_seconds gen)
  in
  let a1, c1, f1 = run () in
  let a2, c2, f2 = run () in
  check Alcotest.int "same arrivals" a1 a2;
  check Alcotest.int "same completions" c1 c2;
  check (Alcotest.list (Alcotest.float 1e-9)) "same FCTs" f1 f2

let () =
  Alcotest.run "horse_core"
    [
      ( "connection_manager",
        [ Alcotest.test_case "triggers FTI" `Quick test_cm_triggers_fti ] );
      ( "routed_fabric",
        [
          Alcotest.test_case "fat-tree converges" `Quick test_bgp_fabric_converges;
          Alcotest.test_case "ecmp groups installed" `Quick
            test_bgp_fabric_ecmp_spreads_paths;
          Alcotest.test_case "failure reconvergence" `Quick
            test_bgp_fabric_link_failure_withdraw;
          Alcotest.test_case "session flap (fail+restore)" `Quick
            test_bgp_fabric_session_flap;
          Alcotest.test_case "fail twice" `Quick test_bgp_fabric_fail_twice;
          Alcotest.test_case "random WANs converge loop-free" `Slow
            test_bgp_random_wans_converge;
          Alcotest.test_case "follow: re-steer, grace, stop" `Quick
            test_bgp_fabric_follow;
        ] );
      ( "sdn_fabric",
        [
          Alcotest.test_case "reactive routing" `Quick
            test_sdn_fabric_reactive_routing;
          Alcotest.test_case "link failure reroute" `Quick
            test_sdn_fabric_link_failure;
          Alcotest.test_case "5-tuple index" `Quick test_sdn_fabric_key_index;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "size distributions" `Quick
            test_traffic_size_distributions;
          Alcotest.test_case "poisson fct" `Slow test_traffic_poisson_fct;
          Alcotest.test_case "determinism" `Slow test_traffic_determinism;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "bgp ecmp" `Slow test_scenario_bgp;
          Alcotest.test_case "sdn ecmp" `Slow test_scenario_sdn;
          Alcotest.test_case "hedera" `Slow test_scenario_hedera;
          Alcotest.test_case "p4" `Slow test_scenario_p4;
          Alcotest.test_case "determinism" `Slow test_scenario_determinism;
          Alcotest.test_case "te ordering" `Slow test_scenario_te_ordering;
          Alcotest.test_case "spec: ospf on a fat-tree" `Slow
            test_spec_ospf_fat_tree;
          Alcotest.test_case "spec: wan kill as a plan" `Quick test_spec_wan_kill;
          Alcotest.test_case "spec: rejected combinations" `Quick
            test_spec_rejected;
          Alcotest.test_case "megauser: minor words per fluid event" `Quick
            test_megauser_words_per_event;
        ] );
    ]
