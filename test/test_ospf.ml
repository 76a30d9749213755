(* Tests for horse_ospf: packet codec, LSDB/SPF, live daemons, and
   the OSPF fabric end-to-end. *)

open Horse_net
open Horse_engine
open Horse_emulation
open Horse_topo
open Horse_ospf
open Horse_core

let check = Alcotest.check
let qtest = Horse_test_support.qtest

let ip = Ipv4.of_string_exn
let p = Prefix.of_string_exn

(* --- codec --------------------------------------------------------------- *)

let gen_router_id = QCheck2.Gen.map Ipv4.of_int32 QCheck2.Gen.int32

let gen_lsa =
  let open QCheck2.Gen in
  let* adv_router = gen_router_id in
  let* seq = int_range 1 1_000_000 in
  let* links =
    list_size (int_range 0 6)
      (oneof
         [
           (let* neighbor = gen_router_id in
            let* metric = int_range 1 100 in
            return (Ospf_msg.Point_to_point { neighbor; metric }));
           (let* a = int32 in
            let* len = int_range 0 32 in
            let* metric = int_range 0 100 in
            return
              (Ospf_msg.Stub { prefix = Prefix.make (Ipv4.of_int32 a) len; metric }));
         ])
  in
  return { Ospf_msg.adv_router; seq; links }

let gen_msg =
  let open QCheck2.Gen in
  oneof
    [
      (let* hello_interval_s = int_range 1 60 in
       let* dead_interval_s = int_range 4 240 in
       let* neighbors = list_size (int_range 0 4) gen_router_id in
       return (Ospf_msg.Hello { hello_interval_s; dead_interval_s; neighbors }));
      (let* lsas = list_size (int_range 0 4) gen_lsa in
       return (Ospf_msg.Ls_update lsas));
      (let* acks =
         list_size (int_range 0 6) (pair gen_router_id (int_range 1 100000))
       in
       return (Ospf_msg.Ls_ack acks));
    ]

let prop_codec_roundtrip =
  qtest ~count:400 "ospf msg: encode/decode roundtrip"
    (QCheck2.Gen.pair gen_router_id gen_msg) (fun (rid, m) ->
      match Ospf_msg.decode (Ospf_msg.encode ~router_id:rid m) with
      | Ok (rid', m') -> Ipv4.equal rid rid' && Ospf_msg.equal m m'
      | Error _ -> false)

let prop_decode_total =
  qtest ~count:500 "ospf msg: decoder never raises on arbitrary bytes"
    QCheck2.Gen.(map Bytes.of_string (string_size (int_range 0 120)))
    (fun junk -> match Ospf_msg.decode junk with Ok _ | Error _ -> true)

let prop_decode_total_mutated =
  qtest ~count:300 "ospf msg: decoder never raises on mutated packets"
    (QCheck2.Gen.triple (QCheck2.Gen.pair gen_router_id gen_msg)
       (QCheck2.Gen.int_bound 300) (QCheck2.Gen.int_bound 255))
    (fun ((rid, m), pos, v) ->
      let buf = Ospf_msg.encode ~router_id:rid m in
      if Bytes.length buf > 0 then
        Bytes.set_uint8 buf (pos mod Bytes.length buf) v;
      match Ospf_msg.decode buf with Ok _ | Error _ -> true)

let test_codec_corruption () =
  let buf =
    Ospf_msg.encode ~router_id:(ip "1.1.1.1")
      (Ospf_msg.Hello
         { hello_interval_s = 10; dead_interval_s = 40; neighbors = [] })
  in
  Bytes.set_uint8 buf 20 (Bytes.get_uint8 buf 20 lxor 1);
  match Ospf_msg.decode buf with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted OSPF packet accepted"

(* --- LSDB / SPF ------------------------------------------------------------ *)

let lsa adv seq links = { Ospf_msg.adv_router = ip adv; seq; links }
let p2p n m = Ospf_msg.Point_to_point { neighbor = ip n; metric = m }
let stub s m = Ospf_msg.Stub { prefix = p s; metric = m }

let test_lsdb_install_order () =
  let db = Lsdb.create () in
  check Alcotest.bool "fresh" true (Lsdb.install db (lsa "1.1.1.1" 2 []) = Lsdb.Newer);
  check Alcotest.bool "same seq" true
    (Lsdb.install db (lsa "1.1.1.1" 2 []) = Lsdb.Duplicate);
  check Alcotest.bool "older" true
    (Lsdb.install db (lsa "1.1.1.1" 1 []) = Lsdb.Older);
  check Alcotest.bool "newer" true
    (Lsdb.install db (lsa "1.1.1.1" 3 [ stub "9.9.0.0/16" 1 ]) = Lsdb.Newer);
  check Alcotest.int "one lsa" 1 (Lsdb.size db);
  match Lsdb.lookup db (ip "1.1.1.1") with
  | Some l -> check Alcotest.int "latest kept" 3 l.Ospf_msg.seq
  | None -> Alcotest.fail "missing"

(* Triangle with unequal metrics: A-B (1), B-C (1), A-C (5).
   From A: C is cheaper via B (cost 2 + stub). *)
let triangle_db () =
  let db = Lsdb.create () in
  ignore (Lsdb.install db (lsa "1.1.1.1" 1 [ p2p "2.2.2.2" 1; p2p "3.3.3.3" 5 ]));
  ignore (Lsdb.install db (lsa "2.2.2.2" 1 [ p2p "1.1.1.1" 1; p2p "3.3.3.3" 1 ]));
  ignore
    (Lsdb.install db
       (lsa "3.3.3.3" 1
          [ p2p "1.1.1.1" 5; p2p "2.2.2.2" 1; stub "30.0.0.0/8" 0 ]));
  db

let test_spf_metrics () =
  let db = triangle_db () in
  match Lsdb.routes db ~self:(ip "1.1.1.1") with
  | [ r ] ->
      check Alcotest.bool "prefix" true (Prefix.equal r.Lsdb.prefix (p "30.0.0.0/8"));
      check Alcotest.int "cost via B" 2 r.Lsdb.cost;
      check
        (Alcotest.list Alcotest.string)
        "next hop is B"
        [ "2.2.2.2" ]
        (List.map Ipv4.to_string r.Lsdb.next_hops)
  | routes -> Alcotest.failf "expected 1 route, got %d" (List.length routes)

let test_spf_two_way_check () =
  (* B advertises the link to C but C does not advertise back: the
     edge must not be used. *)
  let db = Lsdb.create () in
  ignore (Lsdb.install db (lsa "1.1.1.1" 1 [ p2p "2.2.2.2" 1 ]));
  ignore (Lsdb.install db (lsa "2.2.2.2" 1 [ p2p "1.1.1.1" 1; p2p "3.3.3.3" 1 ]));
  ignore (Lsdb.install db (lsa "3.3.3.3" 1 [ stub "30.0.0.0/8" 0 ]));
  check Alcotest.int "no route across a one-way link" 0
    (List.length (Lsdb.routes db ~self:(ip "1.1.1.1")))

let test_spf_ecmp () =
  (* Square: A-B-D and A-C-D with equal metrics; D's stub must get
     two next hops at A. *)
  let db = Lsdb.create () in
  ignore (Lsdb.install db (lsa "1.1.1.1" 1 [ p2p "2.2.2.2" 1; p2p "3.3.3.3" 1 ]));
  ignore (Lsdb.install db (lsa "2.2.2.2" 1 [ p2p "1.1.1.1" 1; p2p "4.4.4.4" 1 ]));
  ignore (Lsdb.install db (lsa "3.3.3.3" 1 [ p2p "1.1.1.1" 1; p2p "4.4.4.4" 1 ]));
  ignore
    (Lsdb.install db
       (lsa "4.4.4.4" 1 [ p2p "2.2.2.2" 1; p2p "3.3.3.3" 1; stub "40.0.0.0/8" 0 ]));
  match Lsdb.routes db ~self:(ip "1.1.1.1") with
  | [ r ] ->
      check Alcotest.int "two equal-cost hops" 2 (List.length r.Lsdb.next_hops)
  | routes -> Alcotest.failf "expected 1 route, got %d" (List.length routes)

(* --- live daemons ------------------------------------------------------------ *)

let two_daemons () =
  let sched = Sched.create () in
  let chan = Channel.create sched () in
  let ep_a, ep_b = Channel.endpoints chan in
  let mk name stubs =
    Daemon.create
      (Process.create sched ~name)
      {
        (Daemon.default_config ~router_id:(ip name)) with
        Daemon.stub_prefixes = stubs;
      }
  in
  let a = mk "1.1.1.1" [ (p "10.1.0.0/16", 0) ] in
  let b = mk "2.2.2.2" [ (p "10.2.0.0/16", 0) ] in
  let ia = Daemon.add_interface a ep_a in
  let ib = Daemon.add_interface b ep_b in
  (sched, a, b, ia, ib)

let test_adjacency_and_routes () =
  let sched, a, b, ia, ib = two_daemons () in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Daemon.start a;
         Daemon.start b));
  ignore (Sched.run ~until:(Time.of_sec 10.0) sched);
  check Alcotest.bool "a full" true (Daemon.neighbor_state a ia = Daemon.Full);
  check Alcotest.bool "b full" true (Daemon.neighbor_state b ib = Daemon.Full);
  check Alcotest.int "lsdb synchronised" 2 (Lsdb.size (Daemon.lsdb a));
  (match Daemon.routes a with
  | [ r ] ->
      check Alcotest.bool "a routes to b's stub" true
        (Prefix.equal r.Lsdb.prefix (p "10.2.0.0/16"))
  | routes -> Alcotest.failf "a has %d routes" (List.length routes));
  check (Alcotest.option Alcotest.int) "interface_of_neighbor" (Some ia)
    (Daemon.interface_of_neighbor a (ip "2.2.2.2"));
  let c = Daemon.counters a in
  check Alcotest.bool "hellos flowed" true (c.Daemon.hellos_sent >= 4);
  check Alcotest.bool "updates flowed" true (c.Daemon.updates_sent >= 1);
  check Alcotest.bool "acks sent" true (c.Daemon.acks_sent >= 1)

let test_daemon_crash_clears_routes () =
  let sched = Sched.create () in
  let chan = Channel.create sched () in
  let ep_a, ep_b = Channel.endpoints chan in
  let proc_b = Process.create sched ~name:"2.2.2.2" in
  let a =
    Daemon.create
      (Process.create sched ~name:"1.1.1.1")
      (Daemon.default_config ~router_id:(ip "1.1.1.1"))
  in
  let b =
    Daemon.create proc_b
      {
        (Daemon.default_config ~router_id:(ip "2.2.2.2")) with
        Daemon.stub_prefixes = [ (p "10.2.0.0/16", 0) ];
      }
  in
  let ia = Daemon.add_interface a ep_a in
  ignore (Daemon.add_interface b ep_b);
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Daemon.start a;
         Daemon.start b));
  ignore (Sched.run ~until:(Time.of_sec 5.0) sched);
  check Alcotest.int "route learned" 1 (List.length (Daemon.routes a));
  ignore (Sched.schedule_at sched (Time.of_sec 6.0) (fun () -> Process.kill proc_b));
  ignore (Sched.run ~until:(Time.of_sec 30.0) sched);
  check Alcotest.bool "adjacency dead" true (Daemon.neighbor_state a ia = Daemon.Down);
  check Alcotest.int "routes cleared" 0 (List.length (Daemon.routes a))

(* Restart a crashed daemon: hellos resume, the adjacency re-forms
   through Init -> TwoWay -> Full and the routes come back. *)
let test_daemon_restart_reforms_adjacency () =
  let sched = Sched.create () in
  let chan = Channel.create sched () in
  let ep_a, ep_b = Channel.endpoints chan in
  let proc_b = Process.create sched ~name:"2.2.2.2" in
  let a =
    Daemon.create
      (Process.create sched ~name:"1.1.1.1")
      (Daemon.default_config ~router_id:(ip "1.1.1.1"))
  in
  let b =
    Daemon.create proc_b
      {
        (Daemon.default_config ~router_id:(ip "2.2.2.2")) with
        Daemon.stub_prefixes = [ (p "10.2.0.0/16", 0) ];
      }
  in
  let ia = Daemon.add_interface a ep_a in
  ignore (Daemon.add_interface b ep_b);
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Daemon.start a;
         Daemon.start b));
  ignore (Sched.run ~until:(Time.of_sec 5.0) sched);
  ignore (Sched.schedule_at sched (Time.of_sec 6.0) (fun () -> Process.kill proc_b));
  ignore (Sched.run ~until:(Time.of_sec 30.0) sched);
  check Alcotest.bool "adjacency down after dead interval" true
    (Daemon.neighbor_state a ia = Daemon.Down);
  ignore
    (Sched.schedule_at sched (Time.of_sec 31.0) (fun () -> Process.restart proc_b));
  ignore (Sched.run ~until:(Time.of_sec 60.0) sched);
  check Alcotest.bool "adjacency full again" true
    (Daemon.neighbor_state a ia = Daemon.Full);
  check Alcotest.int "route re-learned" 1 (List.length (Daemon.routes a))

(* --- fabric ------------------------------------------------------------------- *)

let test_ospf_fabric_wan () =
  let wan = Wan.abilene () in
  let exp = Experiment.create wan.Wan.topo in
  let fabric =
    Ospf_fabric.build ~cm:(Experiment.cm exp)
      ~originate:(fun node -> [ (Wan.router_prefix wan node, 0) ])
      wan.Wan.topo
  in
  check Alcotest.int "adjacency per link" 15 (Ospf_fabric.sessions_expected fabric);
  let converged_at = ref None in
  Experiment.at exp Time.zero (fun () -> Ospf_fabric.start fabric);
  Ospf_fabric.when_converged fabric (fun () ->
      converged_at := Some (Sched.now (Experiment.scheduler exp)));
  let stats = Experiment.run ~until:(Time.of_sec 30.0) exp in
  check Alcotest.bool "converged" true (Ospf_fabric.is_converged fabric);
  check Alcotest.bool "reported" true (!converged_at <> None);
  check Alcotest.int "all adjacencies full" 15 (Ospf_fabric.sessions_established fabric);
  check Alcotest.bool "hellos kept the engine busy" true
    (stats.Sched.fti_increments > 0);
  (* Routing correctness: hop distances via the FIBs match SPF over
     the topology for a few pairs. *)
  let tree = Spf.shortest_tree wan.Wan.topo ~src:0 in
  List.iter
    (fun dst ->
      let key =
        Flow_key.make ~src:(Wan.router_ip wan 0)
          ~dst:(Ipv4.add (Prefix.network (Wan.router_prefix wan dst)) 1)
          ()
      in
      (* Walk the FIBs router-by-router: the source "host" is the
         router itself here, so walk manually from node 0. *)
      let table = Ospf_fabric.table fabric in
      let rec hops node n =
        if node = dst then Some n
        else if n > 15 then None
        else
          match
            Horse_dataplane.Fwd.lookup_select (table node)
              key.Flow_key.dst ~hash:0
          with
          | None -> None
          | Some link_id ->
              hops (Topology.link wan.Wan.topo link_id).Topology.dst (n + 1)
      in
      match (hops 0 0, Spf.distance tree dst) with
      | Some got, Some want ->
          check Alcotest.int (Printf.sprintf "hops to r%d" dst) want got
      | _, _ -> Alcotest.failf "no path to r%d" dst)
    [ 4; 7; 10 ]

let test_ospf_fabric_failure () =
  let wan = Wan.ring 6 in
  let exp = Experiment.create wan.Wan.topo in
  let fabric =
    Ospf_fabric.build ~cm:(Experiment.cm exp)
      ~originate:(fun node -> [ (Wan.router_prefix wan node, 0) ])
      wan.Wan.topo
  in
  Experiment.at exp Time.zero (fun () -> Ospf_fabric.start fabric);
  ignore (Experiment.run ~until:(Time.of_sec 10.0) exp);
  check Alcotest.bool "converged" true (Ospf_fabric.is_converged fabric);
  (* r0's route to r3's prefix: two ECMP ways around the ring. *)
  let dst = Prefix.network (Wan.router_prefix wan 3) in
  let group_size () =
    match Horse_dataplane.Fwd.lookup (Ospf_fabric.table fabric 0) dst with
    | Some g -> List.length g
    | None -> 0
  in
  check Alcotest.int "ecmp around the ring" 2 (group_size ());
  (* Cut r0-r1: everything must go the other way. *)
  Experiment.at exp (Time.of_sec 11.0) (fun () ->
      check Alcotest.bool "failed" true (Ospf_fabric.fail_link fabric ~a:0 ~b:1));
  ignore (Experiment.run ~until:(Time.of_sec 30.0) exp);
  check Alcotest.bool "still converged" true (Ospf_fabric.is_converged fabric);
  check Alcotest.int "single path after failure" 1 (group_size ())

let test_ospf_periodic_fti () =
  (* The OSPF-vs-BGP contrast: converged OSPF still hellos, so the
     engine keeps re-entering FTI long after convergence. *)
  let wan = Wan.linear 2 in
  let config =
    { Sched.default_config with Sched.quiet_timeout = Time.of_ms 500 }
  in
  let exp = Experiment.create ~config wan.Wan.topo in
  let fabric =
    Ospf_fabric.build ~cm:(Experiment.cm exp)
      ~originate:(fun node -> [ (Wan.router_prefix wan node, 0) ])
      wan.Wan.topo
  in
  Experiment.at exp Time.zero (fun () -> Ospf_fabric.start fabric);
  let stats = Experiment.run ~until:(Time.of_sec 20.0) exp in
  (* Hellos every 2 s with a 0.5 s quiet timeout: roughly one FTI
     episode per hello round. *)
  check Alcotest.bool "many transitions" true
    (List.length stats.Sched.transitions >= 10)

let () =
  Alcotest.run "horse_ospf"
    [
      ( "codec",
        [
          prop_codec_roundtrip;
          prop_decode_total;
          prop_decode_total_mutated;
          Alcotest.test_case "corruption detected" `Quick test_codec_corruption;
        ] );
      ( "lsdb",
        [
          Alcotest.test_case "install ordering" `Quick test_lsdb_install_order;
          Alcotest.test_case "spf metrics" `Quick test_spf_metrics;
          Alcotest.test_case "two-way check" `Quick test_spf_two_way_check;
          Alcotest.test_case "spf ecmp" `Quick test_spf_ecmp;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "adjacency and routes" `Quick test_adjacency_and_routes;
          Alcotest.test_case "crash clears routes" `Quick
            test_daemon_crash_clears_routes;
          Alcotest.test_case "restart re-forms adjacency" `Quick
            test_daemon_restart_reforms_adjacency;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "abilene converges + correct hops" `Quick
            test_ospf_fabric_wan;
          Alcotest.test_case "ring failure reroutes" `Quick
            test_ospf_fabric_failure;
          Alcotest.test_case "periodic hellos re-enter FTI" `Quick
            test_ospf_periodic_fti;
        ] );
    ]
