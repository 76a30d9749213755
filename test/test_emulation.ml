(* Tests for horse_emulation: control channels and emulated
   processes. *)

open Horse_engine
open Horse_emulation

let check = Alcotest.check

let msg s = Bytes.of_string s
let msg_str b = Bytes.to_string b

let test_channel_delivery_latency () =
  let sched = Sched.create () in
  let chan = Channel.create sched ~latency:(Time.of_ms 5) () in
  let a, b = Channel.endpoints chan in
  let got = ref [] in
  Channel.set_receiver b (fun m ->
      got := (Time.to_ms (Sched.now sched), msg_str m) :: !got);
  ignore
    (Sched.schedule_at sched (Time.of_ms 10) (fun () -> Channel.send a (msg "hi")));
  ignore (Sched.run ~until:(Time.of_ms 100) sched);
  check
    (Alcotest.list (Alcotest.pair (Alcotest.float 1e-6) Alcotest.string))
    "delivered after latency"
    [ (15.0, "hi") ]
    (List.rev !got)

let test_channel_ordering () =
  let sched = Sched.create () in
  let chan = Channel.create sched () in
  let a, b = Channel.endpoints chan in
  let got = ref [] in
  Channel.set_receiver b (fun m -> got := msg_str m :: !got);
  ignore
    (Sched.schedule_at sched (Time.of_ms 1) (fun () ->
         Channel.send a (msg "1");
         Channel.send a (msg "2");
         Channel.send a (msg "3")));
  ignore (Sched.run ~until:(Time.of_ms 100) sched);
  check (Alcotest.list Alcotest.string) "in order" [ "1"; "2"; "3" ]
    (List.rev !got)

let test_channel_backlog_before_receiver () =
  let sched = Sched.create () in
  let chan = Channel.create sched () in
  let a, b = Channel.endpoints chan in
  let got = ref [] in
  ignore
    (Sched.schedule_at sched (Time.of_ms 1) (fun () ->
         Channel.send a (msg "early1");
         Channel.send a (msg "early2")));
  (* Receiver installed at t = 50ms: backlog must flush in order. *)
  ignore
    (Sched.schedule_at sched (Time.of_ms 50) (fun () ->
         Channel.set_receiver b (fun m -> got := msg_str m :: !got)));
  ignore (Sched.run ~until:(Time.of_ms 100) sched);
  check (Alcotest.list Alcotest.string) "backlog flushed" [ "early1"; "early2" ]
    (List.rev !got)

let test_channel_duplex_and_observer () =
  let sched = Sched.create () in
  let chan = Channel.create sched () in
  let a, b = Channel.endpoints chan in
  let directions = ref [] in
  Channel.set_observer chan (fun dir m ->
      directions :=
        ( (match dir with Channel.A_to_b -> "a->b" | Channel.B_to_a -> "b->a"),
          msg_str m )
        :: !directions);
  Channel.set_receiver a (fun _ -> ());
  Channel.set_receiver b (fun _ -> ());
  ignore
    (Sched.schedule_at sched (Time.of_ms 1) (fun () ->
         Channel.send a (msg "x");
         Channel.send b (msg "y")));
  ignore (Sched.run ~until:(Time.of_ms 10) sched);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "observer sees both directions"
    [ ("a->b", "x"); ("b->a", "y") ]
    (List.rev !directions);
  check Alcotest.int "messages counted" 2 (Channel.messages_sent chan);
  check Alcotest.int "bytes counted" 2 (Channel.bytes_sent chan)

let test_channel_close () =
  let sched = Sched.create () in
  let chan = Channel.create sched ~latency:(Time.of_ms 10) () in
  let a, b = Channel.endpoints chan in
  let delivered = ref 0 in
  let closed = ref 0 in
  Channel.set_receiver b (fun _ -> incr delivered);
  Channel.set_on_close a (fun () -> incr closed);
  Channel.set_on_close b (fun () -> incr closed);
  ignore
    (Sched.schedule_at sched (Time.of_ms 1) (fun () -> Channel.send a (msg "inflight")));
  (* Close before the in-flight message lands. *)
  ignore (Sched.schedule_at sched (Time.of_ms 5) (fun () -> Channel.close chan));
  ignore
    (Sched.schedule_at sched (Time.of_ms 20) (fun () -> Channel.send a (msg "late")));
  ignore (Sched.run ~until:(Time.of_ms 100) sched);
  check Alcotest.int "nothing delivered" 0 !delivered;
  check Alcotest.int "both close hooks ran" 2 !closed;
  check Alcotest.bool "closed" false (Channel.is_open chan)

let test_peer_endpoint () =
  let sched = Sched.create () in
  let chan = Channel.create sched () in
  let a, _b = Channel.endpoints chan in
  let got = ref 0 in
  Channel.set_receiver (Channel.peer a) (fun _ -> incr got);
  ignore (Sched.schedule_at sched Time.zero (fun () -> Channel.send a (msg "z")));
  ignore (Sched.run ~until:(Time.of_ms 10) sched);
  check Alcotest.int "peer of a is b" 1 !got

(* --- Process ----------------------------------------------------------- *)

let test_process_timers () =
  let sched = Sched.create () in
  let proc = Process.create sched in
  let one_shot = ref 0 and periodic = ref 0 in
  Process.after proc (Time.of_ms 10) (fun () -> incr one_shot);
  ignore (Process.every proc (Time.of_ms 20) (fun () -> incr periodic));
  ignore (Sched.run ~until:(Time.of_ms 100) sched);
  check Alcotest.int "one shot" 1 !one_shot;
  check Alcotest.int "periodic fired" 5 !periodic

let test_process_kill_suppresses_timers () =
  let sched = Sched.create () in
  let proc = Process.create sched in
  let fired = ref 0 and cleanup = ref 0 in
  Process.after proc (Time.of_ms 50) (fun () -> incr fired);
  ignore (Process.every proc (Time.of_ms 10) (fun () -> incr fired));
  Process.on_kill proc (fun () -> incr cleanup);
  ignore (Sched.schedule_at sched (Time.of_ms 25) (fun () -> Process.kill proc));
  ignore (Sched.run ~until:(Time.of_ms 200) sched);
  check Alcotest.int "only pre-kill firings" 2 !fired;
  check Alcotest.int "cleanup ran once" 1 !cleanup;
  check Alcotest.bool "dead" false (Process.is_alive proc);
  (* kill is idempotent *)
  Process.kill proc;
  check Alcotest.int "cleanup not re-run" 1 !cleanup

let () =
  Alcotest.run "horse_emulation"
    [
      ( "channel",
        [
          Alcotest.test_case "delivery latency" `Quick test_channel_delivery_latency;
          Alcotest.test_case "ordering" `Quick test_channel_ordering;
          Alcotest.test_case "backlog before receiver" `Quick
            test_channel_backlog_before_receiver;
          Alcotest.test_case "duplex + observer" `Quick
            test_channel_duplex_and_observer;
          Alcotest.test_case "close" `Quick test_channel_close;
          Alcotest.test_case "peer endpoint" `Quick test_peer_endpoint;
        ] );
      ( "process",
        [
          Alcotest.test_case "timers" `Quick test_process_timers;
          Alcotest.test_case "kill suppresses timers" `Quick
            test_process_kill_suppresses_timers;
        ] );
    ]
