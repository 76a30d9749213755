(* Tests for horse_baseline: the Mininet-like per-packet comparator. *)

open Horse_engine
open Horse_baseline

let check = Alcotest.check

let test_creation_model () =
  let m = Mininet_model.default_creation_model in
  let t =
    Mininet_model.creation_seconds m ~n_switches:20 ~n_hosts:16 ~n_links:96
  in
  (* base 1.0 + 20*0.30 + 16*0.12 + 48*0.025 = 10.12 *)
  check (Alcotest.float 1e-6) "modeled seconds" 10.12 t

let test_small_run_delivers () =
  (* Scaled-down run so the test stays fast: 20 Mbps flows for 50ms of
     virtual time on a 4-pod fat tree. *)
  let r =
    Mininet_model.run_fat_tree ~pods:4 ~rate:20e6 ~pkt_bytes:1500
      ~stack_work:false
      ~duration:(Time.of_ms 50)
      ()
  in
  check Alcotest.int "pods" 4 r.Mininet_model.pods;
  check Alcotest.bool "packets delivered" true (r.Mininet_model.packets_delivered > 0);
  check Alcotest.bool "hops exceed packets (multi-hop paths)" true
    (r.Mininet_model.hops_processed > r.Mininet_model.packets_delivered);
  (* At 2% utilisation virtually nothing drops and goodput is close
     to offered. *)
  check Alcotest.bool "low drops" true
    (r.Mininet_model.packets_dropped * 50 < r.Mininet_model.packets_delivered);
  check Alcotest.bool "goodput close to offered" true
    (r.Mininet_model.delivered_bits > 0.8 *. r.Mininet_model.offered_bits)

let test_realtime_model () =
  let r =
    Mininet_model.run_fat_tree ~pods:4 ~rate:20e6 ~stack_work:false
      ~duration:(Time.of_ms 50)
      ~realtime_duration:(Time.of_sec 20.0) ()
  in
  check (Alcotest.float 1e-9) "realtime exec model" 24.0
    r.Mininet_model.exec_realtime_s;
  (* Default: realtime window = executed window. *)
  let r2 =
    Mininet_model.run_fat_tree ~pods:4 ~rate:20e6 ~stack_work:false
      ~duration:(Time.of_ms 50) ()
  in
  check (Alcotest.float 1e-9) "default window" 0.06
    r2.Mininet_model.exec_realtime_s

let test_determinism () =
  let run () =
    Mininet_model.run_fat_tree ~pods:4 ~rate:20e6 ~stack_work:false
      ~duration:(Time.of_ms 50) ()
  in
  let a = run () and b = run () in
  check Alcotest.int "same deliveries" a.Mininet_model.packets_delivered
    b.Mininet_model.packets_delivered;
  check Alcotest.int "same drops" a.Mininet_model.packets_dropped
    b.Mininet_model.packets_dropped

let test_stack_work_costs_more () =
  let run stack_work =
    let r =
      Mininet_model.run_fat_tree ~pods:4 ~rate:50e6 ~stack_work
        ~duration:(Time.of_ms 100) ()
    in
    (r.Mininet_model.exec_wall_s, r.Mininet_model.packets_delivered)
  in
  let wall_without, delivered_without = run false in
  let wall_with, delivered_with = run true in
  check Alcotest.int "same behaviour" delivered_without delivered_with;
  (* Not asserting a strict ratio (noisy), but stack work must not be
     free in aggregate over thousands of packets. *)
  check Alcotest.bool "stack work not cheaper by 2x" true
    (wall_with *. 2.0 > wall_without)

let () =
  Alcotest.run "horse_baseline"
    [
      ( "mininet_model",
        [
          Alcotest.test_case "creation model" `Quick test_creation_model;
          Alcotest.test_case "small run delivers" `Quick test_small_run_delivers;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "realtime model" `Quick test_realtime_model;
          Alcotest.test_case "stack work" `Slow test_stack_work_costs_more;
        ] );
    ]
