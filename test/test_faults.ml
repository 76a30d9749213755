(* Tests for horse_faults: plan codec, keyed rng streams, channel
   impairments, the scheduler watchdog, and end-to-end deterministic
   fault injection with self-healing control planes. *)

open Horse_engine
open Horse_topo
open Horse_emulation
open Horse_core
open Horse_faults

let check = Alcotest.check

(* --- keyed rng streams -------------------------------------------------- *)

let draws rng = List.init 16 (fun _ -> Rng.int rng 1_000_000)

let test_split_key_stable_and_order_independent () =
  let base = Rng.create 99 in
  let d1 = draws (Rng.split_key base "site-a") in
  (* Splitting other keys in between must not perturb site-a's
     stream (fault sites are order-independent). *)
  let _ = draws (Rng.split_key base "site-b") in
  let _ = draws (Rng.split_key base "zzz") in
  let d1' = draws (Rng.split_key base "site-a") in
  check (Alcotest.list Alcotest.int) "same key, same stream" d1 d1';
  let d2 = draws (Rng.split_key base "site-b") in
  check Alcotest.bool "different keys, different streams" true (d1 <> d2);
  let other = draws (Rng.split_key (Rng.create 100) "site-a") in
  check Alcotest.bool "different seeds, different streams" true (d1 <> other)

(* --- plan json codec ---------------------------------------------------- *)

let full_plan =
  {
    Plan.seed = 7;
    events =
      [
        { Plan.at = Time.of_sec 5.0; action = Plan.Link_down { a = "r0"; b = "r1" } };
        { Plan.at = Time.of_sec 6.5; action = Plan.Link_up { a = "r0"; b = "r1" } };
        { Plan.at = Time.of_sec 7.0; action = Plan.Node_crash "r2" };
        { Plan.at = Time.of_sec 9.0; action = Plan.Node_restart "r2" };
        { Plan.at = Time.of_sec 10.0; action = Plan.Session_reset { a = "r1"; b = "r2" } };
        {
          Plan.at = Time.of_sec 11.0;
          action =
            Plan.Impair
              ( { a = "r0"; b = "r1" },
                {
                  Channel.loss = 0.25;
                  extra_delay = Time.of_ms 10;
                  jitter = Time.of_ms 5;
                  duplicate = 0.125;
                } );
        };
        { Plan.at = Time.of_sec 12.0; action = Plan.Clear_impair { a = "r0"; b = "r1" } };
        { Plan.at = Time.of_sec 13.0; action = Plan.Partition [ "r0"; "r1" ] };
        { Plan.at = Time.of_sec 14.0; action = Plan.Heal [ "r0"; "r1" ] };
      ];
    generators =
      [
        {
          Plan.g_site = { a = "r2"; b = "r3" };
          g_start = Time.of_sec 5.0;
          g_stop = Time.of_sec 20.0;
          g_down_for = Time.of_sec 1.0;
          g_flavor = Plan.Periodic (Time.of_sec 4.0);
        };
        {
          Plan.g_site = { a = "r0"; b = "r3" };
          g_start = Time.of_sec 5.0;
          g_stop = Time.of_sec 20.0;
          g_down_for = Time.of_ms 500;
          g_flavor = Plan.Poisson 0.5;
        };
      ];
  }

let test_plan_json_roundtrip () =
  match Plan.of_string (Plan.to_string full_plan) with
  | Error msg -> Alcotest.failf "decode failed: %s" msg
  | Ok plan' ->
      check Alcotest.bool "round-trips exactly" true (full_plan = plan')

let test_plan_decode_errors () =
  (match Plan.of_string "{ nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  match Plan.of_string {|{"seed": 1, "events": [{"at": 1.0, "action": "warp"}]}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown action accepted"

let test_flap_storm_shape () =
  let plan =
    Plan.flap_storm ~seed:3
      ~sites:[ ("a", "b"); ("c", "d") ]
      ~start:(Time.of_sec 1.0) ~stop:(Time.of_sec 9.0)
      ~period:(Time.of_sec 2.0) ~down_for:(Time.of_sec 1.0) ()
  in
  check Alcotest.int "one generator per site" 2 (List.length plan.Plan.generators);
  List.iter
    (fun g ->
      match g.Plan.g_flavor with
      | Plan.Periodic p -> check Alcotest.bool "period kept" true (p = Time.of_sec 2.0)
      | Plan.Poisson _ -> Alcotest.fail "expected periodic")
    plan.Plan.generators

(* --- channel impairments ------------------------------------------------ *)

let clean =
  { Channel.loss = 0.0; extra_delay = Time.zero; jitter = Time.zero; duplicate = 0.0 }

let impaired_channel imp =
  let sched = Sched.create () in
  let chan = Channel.create sched ~latency:(Time.of_ms 1) () in
  let ep_a, ep_b = Channel.endpoints chan in
  let arrivals = ref [] in
  Channel.set_receiver ep_b (fun _ -> arrivals := Sched.now sched :: !arrivals);
  Channel.set_impairment chan ~rng:(Rng.create 5) imp;
  (sched, ep_a, chan, arrivals)

let test_impairment_loss_all () =
  let sched, ep_a, chan, arrivals =
    impaired_channel { clean with Channel.loss = 1.0 }
  in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         for _ = 1 to 50 do
           Channel.send ep_a (Bytes.of_string "x")
         done));
  ignore (Sched.run ~until:(Time.of_sec 1.0) sched);
  check Alcotest.int "nothing delivered" 0 (List.length !arrivals);
  check Alcotest.int "drops counted" 50 (Channel.impaired_dropped chan)

let test_impairment_duplicate_all () =
  let sched, ep_a, chan, arrivals =
    impaired_channel { clean with Channel.duplicate = 1.0 }
  in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Channel.send_many ep_a (List.init 10 (fun _ -> Bytes.of_string "x"))));
  ignore (Sched.run ~until:(Time.of_sec 1.0) sched);
  check Alcotest.int "everything delivered twice" 20 (List.length !arrivals);
  check Alcotest.int "duplicates counted" 10 (Channel.impaired_duplicated chan)

let test_impairment_extra_delay () =
  let sched, ep_a, _, arrivals =
    impaired_channel
      { clean with Channel.extra_delay = Time.of_ms 10 }
  in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Channel.send ep_a (Bytes.of_string "x")));
  ignore (Sched.run ~until:(Time.of_sec 1.0) sched);
  match !arrivals with
  | [ at ] ->
      check Alcotest.bool "latency + extra delay" true (at = Time.of_ms 11)
  | l -> Alcotest.failf "expected 1 delivery, got %d" (List.length l)

let test_impairment_deterministic () =
  let run () =
    let sched = Sched.create () in
    let chan = Channel.create sched ~latency:(Time.of_ms 1) () in
    let ep_a, ep_b = Channel.endpoints chan in
    let arrivals = ref [] in
    Channel.set_receiver ep_b (fun b ->
        arrivals := (Sched.now sched, Bytes.to_string b) :: !arrivals);
    Channel.set_impairment chan ~rng:(Rng.create 42)
      {
        Channel.loss = 0.3;
        extra_delay = Time.of_ms 2;
        jitter = Time.of_ms 5;
        duplicate = 0.2;
      };
    ignore
      (Sched.schedule_at sched Time.zero (fun () ->
           for i = 1 to 100 do
             Channel.send ep_a (Bytes.of_string (string_of_int i))
           done));
    ignore (Sched.run ~until:(Time.of_sec 1.0) sched);
    !arrivals
  in
  let a = run () and b = run () in
  check Alcotest.bool "some loss happened" true (List.length a < 120);
  check Alcotest.bool "identical delivery schedule across runs" true (a = b)

(* --- scheduler watchdog ------------------------------------------------- *)

let test_watchdog_aborts_runaway_run () =
  let config = { Sched.default_config with Sched.max_wall_s = 0.02 } in
  let sched = Sched.create ~config () in
  let sink = ref 0 in
  ignore
    (Sched.every sched (Time.of_us 10) (fun () ->
         for i = 0 to 200 do
           sink := !sink + i
         done));
  let stats = Sched.run ~until:(Time.of_sec 100.0) sched in
  check Alcotest.bool "aborted flag in stats" true stats.Sched.aborted;
  check Alcotest.bool "aborted accessor" true (Sched.aborted sched);
  check Alcotest.bool "stopped before the horizon" true
    Time.(stats.Sched.end_time < Time.of_sec 100.0)

let test_watchdog_off_by_default () =
  let sched = Sched.create () in
  ignore (Sched.schedule_at sched (Time.of_sec 1.0) (fun () -> ()));
  let stats = Sched.run ~until:(Time.of_sec 2.0) sched in
  check Alcotest.bool "no abort" false stats.Sched.aborted

(* --- end-to-end: deterministic injection on the BGP ring ---------------- *)

let ring_plan =
  let storm =
    Plan.flap_storm ~seed:11
      ~sites:[ ("r1", "r2") ]
      ~start:(Time.of_sec 40.0) ~stop:(Time.of_sec 50.0)
      ~period:(Time.of_sec 3.0) ~down_for:(Time.of_sec 1.0) ()
  in
  {
    storm with
    Plan.events =
      [
        { Plan.at = Time.of_sec 5.0; action = Plan.Link_down { a = "r0"; b = "r1" } };
        { Plan.at = Time.of_sec 8.0; action = Plan.Link_up { a = "r0"; b = "r1" } };
        { Plan.at = Time.of_sec 10.0; action = Plan.Node_crash "r2" };
        { Plan.at = Time.of_sec 18.0; action = Plan.Node_restart "r2" };
        { Plan.at = Time.of_sec 24.0; action = Plan.Session_reset { a = "r2"; b = "r3" } };
        {
          Plan.at = Time.of_sec 26.0;
          action =
            Plan.Impair
              ( { a = "r0"; b = "r1" },
                {
                  Channel.loss = 0.2;
                  extra_delay = Time.of_ms 2;
                  jitter = Time.of_ms 1;
                  duplicate = 0.1;
                } );
        };
        { Plan.at = Time.of_sec 30.0; action = Plan.Clear_impair { a = "r0"; b = "r1" } };
        { Plan.at = Time.of_sec 32.0; action = Plan.Partition [ "r0" ] };
        { Plan.at = Time.of_sec 36.0; action = Plan.Heal [ "r0" ] };
      ];
  }

let run_ring plan =
  let wan = Wan.ring 4 in
  let exp = Experiment.create ~seed:1 wan.Wan.topo in
  let router_index = Hashtbl.create 8 in
  Array.iteri
    (fun i (r : Topology.node) -> Hashtbl.replace router_index r.Topology.id i)
    wan.Wan.routers;
  let fabric =
    Routed_fabric.build ~cm:(Experiment.cm exp)
      ~originate:(fun node ->
        match Hashtbl.find_opt router_index node with
        | Some i -> [ Wan.router_prefix wan i ]
        | None -> [])
      wan.Wan.topo
  in
  Experiment.at exp Time.zero (fun () -> Routed_fabric.start fabric);
  let inj =
    Injector.arm
      (Experiment.scheduler exp)
      ~target:(Routed_fabric.fault_target fabric)
      plan
  in
  ignore (Experiment.run ~until:(Time.of_sec 70.0) exp);
  (inj, fabric)

let test_injection_heals_and_replays () =
  let inj1, fabric1 = run_ring ring_plan in
  (* Every fault kind applied; nothing skipped on the BGP fabric. *)
  check Alcotest.bool "faults injected" true (Injector.injected inj1 > 12);
  check Alcotest.int "none skipped" 0 (Injector.skipped inj1);
  (* Self-healed: all sessions re-established, all FIBs complete. *)
  check Alcotest.int "all sessions re-established"
    (Routed_core.sessions_expected fabric1)
    (Routed_core.sessions_established fabric1);
  check Alcotest.bool "fibs complete" true (Routed_core.is_converged fabric1);
  check Alcotest.int "no fault left healing" 0 (Injector.pending inj1);
  check Alcotest.bool "reconvergence recorded" true
    (List.length (Injector.reconvergence inj1) > 0);
  (* Determinism: same seed + plan => identical fault trace and FIBs. *)
  let inj2, fabric2 = run_ring ring_plan in
  check
    (Alcotest.list Alcotest.string)
    "identical fault traces"
    (Injector.trace_labels inj1)
    (Injector.trace_labels inj2);
  check Alcotest.string "identical final FIBs"
    (Routed_fabric.fib_fingerprint fabric1)
    (Routed_fabric.fib_fingerprint fabric2)

let test_unknown_site_is_skipped () =
  let plan =
    {
      Plan.empty with
      Plan.events =
        [
          { Plan.at = Time.of_sec 1.0; action = Plan.Node_crash "nonexistent" };
          { Plan.at = Time.of_sec 2.0; action = Plan.Link_down { a = "r0"; b = "r2" } };
          (* not adjacent on the ring *)
        ];
    }
  in
  let inj, _ = run_ring plan in
  check Alcotest.int "both skipped" 2 (Injector.skipped inj);
  check Alcotest.int "none applied" 0 (Injector.injected inj)

(* The second down lands on a session that is already down: a no-op,
   recorded as skipped. *)
let overlapping_downs_plan =
  let site = { Plan.a = "r0"; b = "r1" } in
  {
    Plan.empty with
    Plan.events =
      [
        { Plan.at = Time.of_sec 5.0; action = Plan.Link_down site };
        { Plan.at = Time.of_sec 6.0; action = Plan.Link_down site };
        { Plan.at = Time.of_sec 8.0; action = Plan.Link_up site };
      ];
  }

let test_overlapping_downs_skipped () =
  let inj, fabric = run_ring overlapping_downs_plan in
  check Alcotest.int "one skipped" 1 (Injector.skipped inj);
  check Alcotest.int "two applied" 2 (Injector.injected inj);
  check Alcotest.int "healed"
    (Routed_core.sessions_expected fabric)
    (Routed_core.sessions_established fabric)

(* --- ospf fabric: fail + restore ---------------------------------------- *)

let test_ospf_fabric_restore_link () =
  let wan = Wan.ring 4 in
  let exp = Experiment.create wan.Wan.topo in
  let fabric =
    Ospf_fabric.build ~cm:(Experiment.cm exp)
      ~originate:(fun node -> [ (Wan.router_prefix wan node, 0) ])
      wan.Wan.topo
  in
  let a = wan.Wan.routers.(0).Topology.id in
  let b = wan.Wan.routers.(1).Topology.id in
  Experiment.at exp Time.zero (fun () -> Routed_core.start fabric);
  let failed = ref false and restored = ref false in
  Experiment.at exp (Time.of_sec 15.0) (fun () ->
      failed := Routed_core.fail_link fabric ~a ~b);
  Experiment.at exp (Time.of_sec 25.0) (fun () ->
      restored := Routed_core.restore_link fabric ~a ~b);
  ignore (Experiment.run ~until:(Time.of_sec 60.0) exp);
  check Alcotest.bool "link failed" true !failed;
  check Alcotest.bool "link restored" true !restored;
  check Alcotest.int "all adjacencies full again"
    (Routed_core.sessions_expected fabric)
    (Routed_core.sessions_established fabric);
  check Alcotest.bool "routing tables complete" true
    (Routed_core.is_converged fabric)

let test_ospf_overlapping_downs_skipped () =
  let wan = Wan.ring 4 in
  let exp = Experiment.create ~seed:1 wan.Wan.topo in
  let fabric =
    Ospf_fabric.build ~cm:(Experiment.cm exp)
      ~originate:(fun node -> [ (Wan.router_prefix wan node, 0) ])
      wan.Wan.topo
  in
  Experiment.at exp Time.zero (fun () -> Routed_core.start fabric);
  let inj =
    Injector.arm
      (Experiment.scheduler exp)
      ~target:(Routed_core.fault_target fabric)
      overlapping_downs_plan
  in
  ignore (Experiment.run ~until:(Time.of_sec 70.0) exp);
  check Alcotest.int "one skipped" 1 (Injector.skipped inj);
  check Alcotest.int "two applied" 2 (Injector.injected inj);
  check Alcotest.int "all adjacencies full again"
    (Routed_core.sessions_expected fabric)
    (Routed_core.sessions_established fabric)

(* --- the k=4 BGP fat-tree's work, pinned ------------------------------ *)

(* Flaps on every 7th inter-switch session plus an aggregation-switch
   crash and restart mid-run. *)
let fat_tree_storm_plan ft =
  let sites =
    List.filteri
      (fun i _ -> i mod 7 = 0)
      (Topology.switch_links ft.Fat_tree.topo)
  in
  let plan =
    Plan.flap_storm ~seed:7 ~sites ~start:(Time.of_sec 2.0)
      ~stop:(Time.of_sec 15.0) ~rate:0.3 ~down_for:(Time.of_sec 1.5) ()
  in
  let crash = ft.Fat_tree.aggs.(0).(0).Topology.name in
  {
    plan with
    Plan.events =
      [
        { Plan.at = Time.of_sec 6.0; action = Plan.Node_crash crash };
        { Plan.at = Time.of_sec 14.0; action = Plan.Node_restart crash };
      ];
  }

(* [fat_tree_storm_plan]'s injections, in order. *)
let storm_trace =
  [
    "2213998 link_down agg-p0-0<->edge-p0-0";
    "3713998 link_up agg-p0-0<->edge-p0-0";
    "4296324 link_down agg-p3-0<->core-1-1";
    "5796324 link_up agg-p3-0<->core-1-1";
    "5945813 link_down agg-p3-0<->core-1-1";
    "6000000 node_crash agg-p0-0";
    "6297741 link_down agg-p1-0<->core-1-2";
    "6728498 link_down agg-p3-0<->edge-p3-1";
    "7445813 link_up agg-p3-0<->core-1-1";
    "7797741 link_up agg-p1-0<->core-1-2";
    "8228498 link_up agg-p3-0<->edge-p3-1";
    "8257214 link_down agg-p1-1<->edge-p1-1";
    "8408745 link_down agg-p1-0<->core-1-2";
    "8872211 link_down agg-p3-0<->core-1-1";
    "9088574 link_down agg-p3-0<->edge-p3-1";
    "9546236 link_down agg-p0-0<->edge-p0-0";
    "9757214 link_up agg-p1-1<->edge-p1-1";
    "9908745 link_up agg-p1-0<->core-1-2";
    "10372211 link_up agg-p3-0<->core-1-1";
    "10588574 link_up agg-p3-0<->edge-p3-1";
    "11046236 link_up agg-p0-0<->edge-p0-0";
    "12667015 link_down agg-p0-0<->edge-p0-0";
    "12749610 link_down agg-p3-0<->core-1-1";
    "12905295 link_down agg-p1-0<->core-1-2";
    "13184064 link_down agg-p3-0<->edge-p3-1";
    "14000000 node_restart agg-p0-0";
    "14167015 link_up agg-p0-0<->edge-p0-0";
    "14249610 link_up agg-p3-0<->core-1-1";
    "14405295 link_up agg-p1-0<->core-1-2";
    "14684064 link_up agg-p3-0<->edge-p3-1";
  ]

(* The BGP fat-tree (k=4, no flows) run for 25 s: the final FIBs, the
   CM message and FIB-write counts, the convergence instant and the
   fault trace are pinned, so any change to what the control
   plane does shows up here. *)
let fat_tree_work ~storm ~messages ~fib_writes ~faults () =
  let ft = Fat_tree.build ~k:4 () in
  let exp = Experiment.create ft.Fat_tree.topo in
  let sched = Experiment.scheduler exp in
  let fabric =
    Routed_fabric.build ~cm:(Experiment.cm exp)
      ~originate:(Fat_tree.edge_subnets ft) ft.Fat_tree.topo
  in
  Experiment.at exp Time.zero (fun () -> Routed_fabric.start fabric);
  let converged = ref None in
  Routed_fabric.when_converged fabric (fun () ->
      converged := Some (Time.to_us (Sched.now sched)));
  let inj =
    if storm then
      Some
        (Injector.arm sched
           ~target:(Routed_fabric.fault_target fabric)
           (fat_tree_storm_plan ft))
    else None
  in
  ignore (Experiment.run ~until:(Time.of_sec 25.0) exp);
  check Alcotest.string "fib fingerprint" "0a9e8e63eee7c80d79f89d0181f3255b"
    (Routed_fabric.fib_fingerprint fabric);
  check Alcotest.int "control messages" messages
    (Connection_manager.messages_observed (Experiment.cm exp));
  check Alcotest.int "fib writes" fib_writes
    (Routed_fabric.fib_routes_installed fabric);
  check
    (Alcotest.option Alcotest.int)
    "convergence instant" (Some 7_900) !converged;
  let trace =
    match inj with
    | Some inj -> Injector.trace_labels inj
    | None -> []
  in
  check (Alcotest.list Alcotest.string) "fault trace" faults trace

(* --- the routed core: one fault surface, one convergence latch ---------- *)

(* Both routed fabrics on a 4-router ring, run until converged. *)
let ring_target ~ospf =
  let wan = Wan.ring 4 in
  let exp = Experiment.create wan.Wan.topo in
  let cm = Experiment.cm exp in
  let prefix = Wan.router_prefix wan in
  let start, target =
    if ospf then
      let f = Ospf_fabric.build ~cm ~originate:(fun n -> [ (prefix n, 0) ]) wan.Wan.topo in
      ((fun () -> Routed_core.start f), Routed_core.fault_target f)
    else
      let f = Routed_fabric.build ~cm ~originate:(fun n -> [ prefix n ]) wan.Wan.topo in
      ((fun () -> Routed_fabric.start f), Routed_fabric.fault_target f)
  in
  Experiment.at exp Time.zero start;
  ignore (Experiment.run ~until:(Time.of_sec 10.0) exp);
  target

(* A fault on an unknown site, or on a session or process already in
   the target state, is a no-op reported as [false], so the injector
   records it as skipped. *)
let test_fault_surface_contract () =
  List.iter
    (fun (ospf, reset_applies) ->
      let t = ring_target ~ospf in
      let expect label want got =
        check Alcotest.bool (t.Injector.describe ^ ": " ^ label) want got
      in
      expect "converged" true (t.Injector.converged ());
      expect "unknown node" false (t.Injector.node_crash "nonexistent");
      expect "unknown link end" false (t.Injector.link_down ~a:"r0" ~b:"nonexistent");
      expect "non-adjacent pair" false (t.Injector.link_down ~a:"r0" ~b:"r2");
      expect "restore a live link" false (t.Injector.link_up ~a:"r0" ~b:"r1");
      expect "first fail" true (t.Injector.link_down ~a:"r0" ~b:"r1");
      expect "second fail" false (t.Injector.link_down ~a:"r0" ~b:"r1");
      expect "restore the failed link" true (t.Injector.link_up ~a:"r1" ~b:"r0");
      expect "restart a live node" false (t.Injector.node_restart "r2");
      expect "first crash" true (t.Injector.node_crash "r2");
      expect "second crash" false (t.Injector.node_crash "r2");
      expect "restart the crashed node" true (t.Injector.node_restart "r2");
      expect "session reset" reset_applies (t.Injector.session_reset ~a:"r0" ~b:"r3"))
    [ (false, true); (true, false) ]

(* Runs [run] with a probe on every FIB change: after each one the
   latch equals the full-scan oracle, and the convergence callback
   fires at the first end of an instant at which the oracle holds.
   The run must also reopen the latch (a tracked pair lost again) so
   both directions of the count are exercised. *)
let check_latch ~sched ~on_fib_change ~is_converged ~when_converged ~oracle run =
  let now () = Time.to_us (Sched.now sched) in
  let changes = ref 0 and reopened = ref false and queued = ref false in
  let first_held = ref None and fired_at = ref None in
  on_fib_change (fun _ _ ->
      incr changes;
      let latch = is_converged () and scan = oracle () in
      if latch <> scan then
        Alcotest.failf "at %d us: latch says %b, the scan %b" (now ()) latch scan;
      if !first_held <> None && not latch then reopened := true;
      if not !queued then begin
        queued := true;
        Sched.defer sched (fun () ->
            queued := false;
            if !first_held = None && oracle () then first_held := Some (now ()))
      end);
  when_converged (fun () -> fired_at := Some (now ()));
  run ();
  check Alcotest.bool "fib changes seen" true (!changes > 0);
  check Alcotest.bool "latch reopened" true !reopened;
  check Alcotest.bool "converged" true (!first_held <> None);
  check
    (Alcotest.option Alcotest.int)
    "fired at the first converged end of instant" !first_held !fired_at

let check_bgp_latch ~exp ~originate fabric =
  let sched = Experiment.scheduler exp in
  let nodes = List.map fst (Routed_core.daemons fabric) in
  check_latch ~sched
    ~on_fib_change:(Routed_core.on_fib_change fabric)
    ~is_converged:(fun () -> Routed_core.is_converged fabric)
    ~when_converged:(Routed_fabric.when_converged fabric)
    ~oracle:(fun () ->
      Horse_test_support.converged_reference
        ~table:(Routed_fabric.table fabric) ~originate nodes)

let test_latch_bgp_storm () =
  let ft = Fat_tree.build ~k:4 () in
  let exp = Experiment.create ft.Fat_tree.topo in
  let originate = Fat_tree.edge_subnets ft in
  let fabric =
    Routed_fabric.build ~cm:(Experiment.cm exp) ~originate ft.Fat_tree.topo
  in
  Experiment.at exp Time.zero (fun () -> Routed_fabric.start fabric);
  ignore
    (Injector.arm (Experiment.scheduler exp)
       ~target:(Routed_fabric.fault_target fabric)
       (fat_tree_storm_plan ft));
  check_bgp_latch ~exp ~originate fabric (fun () ->
      ignore (Experiment.run ~until:(Time.of_sec 25.0) exp))

let test_latch_ospf_ring () =
  let wan = Wan.ring 4 in
  let exp = Experiment.create wan.Wan.topo in
  let originate node = [ Wan.router_prefix wan node ] in
  let fabric =
    Ospf_fabric.build ~cm:(Experiment.cm exp)
      ~originate:(fun node -> List.map (fun p -> (p, 0)) (originate node))
      wan.Wan.topo
  in
  let nodes = List.map fst (Routed_core.daemons fabric) in
  Experiment.at exp Time.zero (fun () -> Routed_core.start fabric);
  Experiment.at exp (Time.of_sec 15.0) (fun () ->
      ignore (Routed_core.fail_link fabric ~a:0 ~b:1));
  Experiment.at exp (Time.of_sec 25.0) (fun () ->
      ignore (Routed_core.restore_link fabric ~a:0 ~b:1));
  check_latch
    ~sched:(Experiment.scheduler exp)
    ~on_fib_change:(Routed_core.on_fib_change fabric)
    ~is_converged:(fun () -> Routed_core.is_converged fabric)
    ~when_converged:(Routed_core.when_converged fabric)
    ~oracle:(fun () ->
      Horse_test_support.converged_reference
        ~table:(Routed_core.table fabric) ~originate nodes)
    (fun () -> ignore (Experiment.run ~until:(Time.of_sec 40.0) exp))

(* A /8, a /16 inside it and a /24 inside that, on three routers of a
   ring: a write to the /8 moves the other two wherever they resolve
   through it, and crashing its originator withdraws it. *)
let test_latch_overlapping () =
  let wan = Wan.ring 5 in
  let exp = Experiment.create wan.Wan.topo in
  let originate = function
    | 0 -> [ Horse_net.Prefix.of_string_exn "10.0.0.0/8" ]
    | 1 -> [ Horse_net.Prefix.of_string_exn "10.1.0.0/16" ]
    | 2 -> [ Horse_net.Prefix.of_string_exn "10.1.2.0/24" ]
    | _ -> []
  in
  let fabric = Routed_fabric.build ~cm:(Experiment.cm exp) ~originate wan.Wan.topo in
  Experiment.at exp Time.zero (fun () -> Routed_fabric.start fabric);
  Experiment.at exp (Time.of_sec 5.0) (fun () ->
      ignore (Routed_fabric.crash_node fabric 0));
  Experiment.at exp (Time.of_sec 25.0) (fun () ->
      let target = Routed_core.fault_target fabric in
      ignore (target.Injector.node_restart wan.Wan.routers.(0).Topology.name));
  Experiment.at exp (Time.of_sec 30.0) (fun () ->
      ignore (Routed_fabric.fail_link fabric ~a:1 ~b:2));
  check_bgp_latch ~exp ~originate fabric (fun () ->
      ignore (Experiment.run ~until:(Time.of_sec 60.0) exp));
  check Alcotest.bool "healed" true (Routed_core.is_converged fabric)

(* OSPF on the k=4 fat tree converges to the same FIBs as BGP (the
   fingerprint pinned in [fat_tree_work]), at an exact instant. *)
let test_ospf_fat_tree_fibs () =
  let ft = Fat_tree.build ~k:4 () in
  let exp = Experiment.create ft.Fat_tree.topo in
  let sched = Experiment.scheduler exp in
  let fabric =
    Ospf_fabric.build ~cm:(Experiment.cm exp)
      ~originate:(fun node -> List.map (fun p -> (p, 0)) (Fat_tree.edge_subnets ft node))
      ft.Fat_tree.topo
  in
  Experiment.at exp Time.zero (fun () -> Routed_core.start fabric);
  let converged = ref None in
  Routed_core.when_converged fabric (fun () ->
      converged := Some (Time.to_us (Sched.now sched)));
  ignore (Experiment.run ~until:(Time.of_sec 10.0) exp);
  check
    (Alcotest.option Alcotest.int)
    "convergence instant" (Some 2_011_050) !converged;
  check Alcotest.string "fib fingerprint" "0a9e8e63eee7c80d79f89d0181f3255b"
    (Routed_core.fib_fingerprint fabric)

let () =
  Alcotest.run "horse_faults"
    [
      ( "rng",
        [
          Alcotest.test_case "split_key streams" `Quick
            test_split_key_stable_and_order_independent;
        ] );
      ( "plan",
        [
          Alcotest.test_case "json round-trip" `Quick test_plan_json_roundtrip;
          Alcotest.test_case "decode errors" `Quick test_plan_decode_errors;
          Alcotest.test_case "flap_storm shape" `Quick test_flap_storm_shape;
        ] );
      ( "impairments",
        [
          Alcotest.test_case "loss 1.0 drops all" `Quick test_impairment_loss_all;
          Alcotest.test_case "duplicate 1.0 doubles" `Quick
            test_impairment_duplicate_all;
          Alcotest.test_case "extra delay" `Quick test_impairment_extra_delay;
          Alcotest.test_case "seeded draws reproduce" `Quick
            test_impairment_deterministic;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "aborts runaway run" `Quick
            test_watchdog_aborts_runaway_run;
          Alcotest.test_case "off by default" `Quick test_watchdog_off_by_default;
        ] );
      ( "injector",
        [
          Alcotest.test_case "heals + deterministic replay" `Quick
            test_injection_heals_and_replays;
          Alcotest.test_case "unknown sites skipped" `Quick
            test_unknown_site_is_skipped;
          Alcotest.test_case "overlapping downs skipped" `Quick
            test_overlapping_downs_skipped;
        ] );
      ( "bgp-fat-tree",
        [
          Alcotest.test_case "clean k=4 work" `Quick
            (fat_tree_work ~storm:false ~messages:1_248 ~fib_writes:352
               ~faults:[]);
          Alcotest.test_case "failure storm k=4 work" `Quick
            (fat_tree_work ~storm:true ~messages:2_798 ~fib_writes:1_240
               ~faults:storm_trace);
        ] );
      ( "ospf-fabric",
        [
          Alcotest.test_case "fail + restore link" `Quick
            test_ospf_fabric_restore_link;
          Alcotest.test_case "overlapping downs skipped" `Quick
            test_ospf_overlapping_downs_skipped;
        ] );
      ( "routed-core",
        [
          Alcotest.test_case "fault surface contract" `Quick
            test_fault_surface_contract;
          Alcotest.test_case "latch = oracle, bgp storm k=4" `Quick
            test_latch_bgp_storm;
          Alcotest.test_case "latch = oracle, ospf ring flaps" `Quick
            test_latch_ospf_ring;
          Alcotest.test_case "latch = oracle, overlapping prefixes" `Quick
            test_latch_overlapping;
          Alcotest.test_case "ospf k=4 converges to the bgp fibs" `Quick
            test_ospf_fat_tree_fibs;
        ] );
    ]
