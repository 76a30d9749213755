(* Tests for the multicore engine: partition construction, barrier
   mailbox determinism (domains must be unobservable), registry
   merging, and the differential oracle — a sharded fat-tree run with
   domains = 1 vs N must produce byte-identical FIB fingerprints,
   causal hashes, mode timelines and fault traces, clean and under a
   fault storm. *)

open Horse_engine
open Horse_topo
open Horse_core
module Registry = Horse_telemetry.Registry
module Counter = Registry.Counter
module Gauge = Registry.Gauge
module Histogram = Horse_telemetry.Histogram

let check = Alcotest.check

let qtest = Horse_test_support.qtest

(* --- partitions --------------------------------------------------------- *)

let test_partition_fat_tree_pods () =
  let ft = Fat_tree.build ~k:4 () in
  let p = Partition.fat_tree_pods ft in
  check Alcotest.int "one shard per pod" 4 (Partition.n_shards p);
  Partition.validate p ft.Fat_tree.topo;
  let owner (n : Topology.node) = p.Partition.owner n.Topology.id in
  Array.iteri
    (fun pod row ->
      Array.iter
        (fun n -> check Alcotest.int "edge follows pod" pod (owner n))
        row)
    ft.Fat_tree.edges;
  Array.iteri
    (fun pod row ->
      Array.iter
        (fun n -> check Alcotest.int "agg follows pod" pod (owner n))
        row)
    ft.Fat_tree.aggs;
  Array.iteri
    (fun h n ->
      check Alcotest.int "host follows pod" (Fat_tree.pod_of_host ft h)
        (owner n))
    ft.Fat_tree.hosts;
  Array.iteri
    (fun i n -> check Alcotest.int "cores round-robin" (i mod 4) (owner n))
    ft.Fat_tree.cores

let test_partition_fat_tree_grouped () =
  let ft = Fat_tree.build ~k:4 () in
  let p = Partition.fat_tree_pods ~shards:2 ft in
  check Alcotest.int "two shards" 2 (Partition.n_shards p);
  Partition.validate p ft.Fat_tree.topo;
  let owner (n : Topology.node) = p.Partition.owner n.Topology.id in
  (* contiguous pod groups: pods {0,1} -> 0, pods {2,3} -> 1 *)
  Array.iteri
    (fun pod row ->
      Array.iter
        (fun n ->
          check Alcotest.int "pod group" (if pod < 2 then 0 else 1) (owner n))
        row)
    ft.Fat_tree.edges;
  (match Partition.fat_tree_pods ~shards:5 ft with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shards > pods must be rejected");
  match Partition.fat_tree_pods ~shards:0 ft with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shards = 0 must be rejected"

let test_partition_round_robin () =
  let ft = Fat_tree.build ~k:4 () in
  let topo = ft.Fat_tree.topo in
  let p = Partition.round_robin topo ~shards:3 in
  Partition.validate p topo;
  (* switches round-robin in id order *)
  let switches =
    List.filter
      (fun (n : Topology.node) -> n.Topology.kind = Topology.Switch)
      (Topology.nodes topo)
  in
  let switches =
    List.sort
      (fun (a : Topology.node) b -> compare a.Topology.id b.Topology.id)
      switches
  in
  List.iteri
    (fun i (n : Topology.node) ->
      check Alcotest.int "switch round-robin" (i mod 3)
        (p.Partition.owner n.Topology.id))
    switches;
  (* hosts ride with a switch they attach to *)
  let host_ok (h : Topology.node) =
    List.exists
      (fun (l : Topology.link) ->
        (l.Topology.src = h.Topology.id
        && p.Partition.owner l.Topology.dst
           = p.Partition.owner h.Topology.id)
        || l.Topology.dst = h.Topology.id
           && p.Partition.owner l.Topology.src
              = p.Partition.owner h.Topology.id)
      (Topology.links topo)
  in
  Array.iter
    (fun h ->
      check Alcotest.bool "host colocated with a neighbour switch" true
        (host_ok h))
    ft.Fat_tree.hosts

let test_partition_of_fun_range_check () =
  (match Partition.of_fun ~name:"bad" ~shards:[||] (fun _ -> 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty shard array must be rejected");
  let p = Partition.of_fun ~name:"oob" ~shards:[| "only" |] (fun _ -> 3) in
  match p.Partition.owner 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range owner result must be rejected"

(* --- scheduler lookahead ------------------------------------------------ *)

let test_next_activity () =
  let s = Sched.create () in
  check
    (Alcotest.option Alcotest.int)
    "fresh scheduler is idle" None
    (Option.map Time.to_us (Sched.next_activity s));
  let h = Sched.schedule_at s (Time.of_ms 5) (fun () -> ()) in
  check
    (Alcotest.option Alcotest.int)
    "next queued event" (Some 5_000)
    (Option.map Time.to_us (Sched.next_activity s));
  Sched.cancel h;
  Sched.defer s (fun () -> ());
  check
    (Alcotest.option Alcotest.int)
    "deferred work means now" (Some 0)
    (Option.map Time.to_us (Sched.next_activity s))

(* --- barrier mailboxes -------------------------------------------------- *)

(* Run a little 3-shard send plan: entry [i] = (src, dst_offset,
   send_ms, delay_ms) schedules, on [src]'s scheduler at [send_ms], a
   cross-shard post delivering [delay_ms] later. Each destination logs
   (tag, src, delivery time) — appended only by the owning shard, so
   the logs are race-free under any domain count. *)
let run_mail_plan ~domains plan =
  let shards =
    Array.init 3 (fun i ->
        Shard.create ~index:i ~name:(Printf.sprintf "s%d" i) ~seed:11 ())
  in
  let b = Barrier.create shards in
  let logs = Array.make 3 [] in
  List.iteri
    (fun tag (src, dst_off, send_ms, delay_ms) ->
      let dst = (src + 1 + dst_off) mod 3 in
      let sched = Shard.sched shards.(src) in
      ignore
        (Sched.schedule_at sched (Time.of_ms send_ms) (fun () ->
             Barrier.post b ~src ~dst
               ~at:(Time.add (Sched.now sched) (Time.of_ms delay_ms))
               (fun () ->
                 let at = Time.to_us (Sched.now (Shard.sched shards.(dst))) in
                 logs.(dst) <- (tag, src, at) :: logs.(dst)))))
    plan;
  Barrier.run ~domains ~until:(Time.of_ms 40) b;
  (Array.map List.rev logs, Barrier.cross_messages b)

let test_mailbox_order_fixed () =
  (* same epoch, three senders into shard 1: drained in (src, dst)
     order — src 0 before src 2 — and per-mailbox in send order. *)
  let plan =
    [ (2, 1, 5, 1); (0, 0, 5, 1); (0, 0, 5, 2); (2, 1, 5, 2) ]
    (* tags:   0        1            2            3 *)
  in
  let logs, cross = run_mail_plan ~domains:1 plan in
  check Alcotest.int "four cross messages" 4 cross;
  let got = List.map (fun (tag, src, _) -> (tag, src)) logs.(1) in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "fixed (src, send-order) drain"
    [ (1, 0); (0, 2); (2, 0); (3, 2) ]
    got

let mailbox_prop plan =
  run_mail_plan ~domains:1 plan = run_mail_plan ~domains:3 plan

let qcheck_mailbox_deterministic =
  qtest ~count:60 "mailbox delivery is a pure function of the plan"
    QCheck2.Gen.(
      list_size (int_range 1 40)
        (quad (int_range 0 2) (int_range 0 1) (int_range 0 20)
           (int_range 1 5)))
    mailbox_prop

(* --- registry merging --------------------------------------------------- *)

let test_merge_counters_and_gauges () =
  let a = Registry.create () and b = Registry.create () in
  Counter.add (Registry.counter a ~subsystem:"t" "hits") 3;
  Counter.add (Registry.counter b ~subsystem:"t" "hits") 4;
  Gauge.set (Registry.gauge a ~subsystem:"t" "depth") 2.0;
  Gauge.set (Registry.gauge b ~subsystem:"t" "depth") 5.0;
  Counter.add (Registry.counter b ~subsystem:"t" "misses") 7;
  Registry.merge_into a b;
  check Alcotest.int "counters sum" 7
    (Counter.value (Registry.counter a ~subsystem:"t" "hits"));
  check (Alcotest.float 1e-9) "gauges take the max" 5.0
    (Gauge.value (Registry.gauge a ~subsystem:"t" "depth"));
  check Alcotest.int "missing metrics are registered" 7
    (Counter.value (Registry.counter a ~subsystem:"t" "misses"))

let test_merge_histograms () =
  let a = Registry.create () and b = Registry.create () in
  let ha = Registry.histogram a ~subsystem:"t" ~lo:1e-3 ~hi:10.0 "lat" in
  Histogram.add_list ha [ 0.01; 0.1 ];
  let hb = Registry.histogram b ~subsystem:"t" ~lo:1e-3 ~hi:10.0 "lat" in
  Histogram.add_list hb [ 0.5; 2.0; 0.02 ];
  Registry.merge_into a b;
  check Alcotest.int "bucket counts sum" 5 (Histogram.count ha);
  check (Alcotest.float 1e-6) "sums add" 2.63 (Histogram.sum ha)

let test_merge_kind_conflict () =
  let a = Registry.create () and b = Registry.create () in
  ignore (Registry.counter a ~subsystem:"t" "x");
  ignore (Registry.gauge b ~subsystem:"t" "x");
  match Registry.merge_into a b with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "kind conflict must be rejected"

(* --- the differential oracle -------------------------------------------- *)

let check_identical name (r1 : Multicore.result) (rn : Multicore.result) =
  check Alcotest.string
    (name ^ ": fib fingerprint")
    r1.Multicore.fib_fingerprint rn.Multicore.fib_fingerprint;
  check Alcotest.string (name ^ ": causal hash") r1.Multicore.causal_hash
    rn.Multicore.causal_hash;
  check Alcotest.bool (name ^ ": mode timelines") true
    (r1.Multicore.timelines = rn.Multicore.timelines);
  check Alcotest.bool (name ^ ": fault traces") true
    (r1.Multicore.fault_trace = rn.Multicore.fault_trace);
  check
    (Alcotest.option Alcotest.int)
    (name ^ ": convergence instant")
    (Option.map Time.to_us r1.Multicore.converged_at)
    (Option.map Time.to_us rn.Multicore.converged_at);
  check Alcotest.int (name ^ ": cross messages") r1.Multicore.cross_messages
    rn.Multicore.cross_messages;
  check Alcotest.int (name ^ ": epochs") r1.Multicore.epochs
    rn.Multicore.epochs

let test_differential_clean () =
  List.iter
    (fun pods ->
      let run d =
        Multicore.run_fat_tree ~pods ~domains:d ~duration:(Time.of_sec 10.0) ()
      in
      let r1 = run 1 in
      let name what = Printf.sprintf "k=%d %s" pods what in
      check Alcotest.bool (name "converges") true
        (r1.Multicore.converged_at <> None);
      check Alcotest.int (name "all sessions up") r1.Multicore.sessions_total
        r1.Multicore.sessions_up;
      check Alcotest.bool (name "traffic crosses shards") true
        (r1.Multicore.cross_messages > 0);
      check_identical (name "domains 2") r1 (run 2);
      check_identical (name "domains 4") r1 (run 4))
    [ 4; 6 ]

(* The failure storm: flaps on every 7th inter-switch session plus an
   aggregation-switch crash and restart mid-run. *)
let storm_plan ft =
  let sites =
    List.filteri
      (fun i _ -> i mod 7 = 0)
      (Topology.switch_links ft.Fat_tree.topo)
  in
  let plan =
    Horse_faults.Plan.flap_storm ~seed:7 ~sites ~start:(Time.of_sec 2.0)
      ~stop:(Time.of_sec 15.0) ~rate:0.3 ~down_for:(Time.of_sec 1.5) ()
  in
  let crash = ft.Fat_tree.aggs.(0).(0).Topology.name in
  {
    plan with
    Horse_faults.Plan.events =
      [
        {
          Horse_faults.Plan.at = Time.of_sec 6.0;
          action = Horse_faults.Plan.Node_crash crash;
        };
        {
          Horse_faults.Plan.at = Time.of_sec 14.0;
          action = Horse_faults.Plan.Node_restart crash;
        };
      ];
  }

let test_differential_storm () =
  let ft = Fat_tree.build ~k:4 () in
  let run d =
    Multicore.run_fat_tree ~pods:4 ~domains:d ~faults:(storm_plan ft)
      ~duration:(Time.of_sec 25.0) ()
  in
  let r1 = run 1 in
  check Alcotest.bool "a real storm (>= 22 faults)" true
    (r1.Multicore.faults_injected >= 22);
  check Alcotest.int "no skipped faults" 0 r1.Multicore.faults_skipped;
  check Alcotest.int "self-heals" r1.Multicore.sessions_total
    r1.Multicore.sessions_up;
  check_identical "domains 2" r1 (run 2);
  check_identical "domains 4" r1 (run 4)

(* --- the cross-path differential ------------------------------------------ *)

(* The unsharded fabric on an Experiment (no flows), reduced to what the
   sharded runner reports. *)
type facts = {
  fingerprint : string;
  causal : string;
  messages : int;
  fib_writes : int;
  converged_us : int option;
  faults : string list;  (* sorted trace labels *)
}

let unsharded_facts ?faults ~duration ft =
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
    Option.map
      (Horse_faults.Injector.arm sched
         ~target:(Routed_fabric.fault_target fabric))
      faults
  in
  ignore (Experiment.run ~until:duration exp);
  let graph = Option.get (Sched.causal sched) in
  {
    fingerprint = Routed_fabric.fib_fingerprint fabric;
    causal = Digest.to_hex (Digest.string (Causal.hash graph ^ "\n"));
    messages = Connection_manager.messages_observed (Experiment.cm exp);
    fib_writes = Routed_fabric.fib_routes_installed fabric;
    converged_us = !converged;
    faults =
      (match inj with
      | Some inj -> List.sort compare (Horse_faults.Injector.trace_labels inj)
      | None -> []);
  }

let sharded_facts (r : Multicore.result) =
  {
    fingerprint = r.Multicore.fib_fingerprint;
    causal = r.Multicore.causal_hash;
    messages = r.Multicore.control_messages;
    fib_writes = r.Multicore.fib_writes;
    converged_us = Option.map Time.to_us r.Multicore.converged_at;
    faults =
      List.sort compare (List.concat (Array.to_list r.Multicore.fault_trace));
  }

(* Unsharded, one shard, and one shard per pod reach the same final
   FIBs through the same faults; one shard is the unsharded run byte
   for byte. *)
let cross_path ~storm ~messages ~fib_writes () =
  let ft = Fat_tree.build ~k:4 () in
  let faults = if storm then Some (storm_plan ft) else None in
  let duration = Time.of_sec 25.0 in
  let plain = unsharded_facts ?faults ~duration ft in
  let one =
    sharded_facts (Multicore.run_fat_tree ~pods:4 ~shards:1 ?faults ~duration ())
  in
  let per_pod =
    sharded_facts (Multicore.run_fat_tree ~pods:4 ?faults ~duration ())
  in
  List.iter
    (fun (name, f) ->
      check Alcotest.string (name ^ ": fib fingerprint")
        "0a9e8e63eee7c80d79f89d0181f3255b" f.fingerprint;
      check
        (Alcotest.list Alcotest.string)
        (name ^ ": fault trace") plain.faults f.faults)
    [ ("unsharded", plain); ("shards 1", one); ("shard per pod", per_pod) ];
  check Alcotest.int "unsharded: control messages" messages plain.messages;
  check Alcotest.int "unsharded: fib writes" fib_writes plain.fib_writes;
  check
    (Alcotest.option Alcotest.int)
    "unsharded: convergence instant" (Some 50_000) plain.converged_us;
  check Alcotest.string "shards 1: causal hash" plain.causal one.causal;
  check Alcotest.int "shards 1: control messages" plain.messages one.messages;
  check Alcotest.int "shards 1: fib writes" plain.fib_writes one.fib_writes;
  check
    (Alcotest.option Alcotest.int)
    "shards 1: convergence instant" plain.converged_us one.converged_us

let () =
  Alcotest.run "multicore"
    [
      ( "partition",
        [
          Alcotest.test_case "fat-tree pods" `Quick
            test_partition_fat_tree_pods;
          Alcotest.test_case "grouped pods" `Quick
            test_partition_fat_tree_grouped;
          Alcotest.test_case "round-robin" `Quick test_partition_round_robin;
          Alcotest.test_case "of_fun range check" `Quick
            test_partition_of_fun_range_check;
        ] );
      ( "barrier",
        [
          Alcotest.test_case "next_activity lookahead" `Quick
            test_next_activity;
          Alcotest.test_case "fixed drain order" `Quick
            test_mailbox_order_fixed;
          qcheck_mailbox_deterministic;
        ] );
      ( "registry-merge",
        [
          Alcotest.test_case "counters + gauges" `Quick
            test_merge_counters_and_gauges;
          Alcotest.test_case "histograms" `Quick test_merge_histograms;
          Alcotest.test_case "kind conflict" `Quick test_merge_kind_conflict;
        ] );
      ( "differential",
        [
          Alcotest.test_case "clean fat-tree, domains 1/2/4" `Quick
            test_differential_clean;
          Alcotest.test_case "failure storm, domains 1/2/4" `Quick
            test_differential_storm;
          Alcotest.test_case "clean, unsharded vs shards" `Quick
            (cross_path ~storm:false ~messages:1_248 ~fib_writes:352);
          Alcotest.test_case "failure storm, unsharded vs shards" `Quick
            (cross_path ~storm:true ~messages:2_798 ~fib_writes:1_240);
        ] );
    ]
