(* Tests for horse_p4: program validation, the pipeline interpreter,
   the runtime codec, the agent, and the P4 fabric end-to-end. *)

open Horse_net
open Horse_engine
open Horse_emulation
open Horse_topo
open Horse_p4
open Horse_core

let check = Alcotest.check
let qtest = Horse_test_support.qtest

(* --- program validation ----------------------------------------------- *)

let test_ecmp_router_valid () =
  match Prog.validate Prog.ecmp_router with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_validate_catches () =
  let base = Prog.ecmp_router in
  let broken =
    [
      ( "unknown field in table key",
        {
          base with
          Prog.tables =
            [
              {
                Prog.table_name = "t";
                keys = [ ("nope", Prog.Exact) ];
                action_refs = [ "discard" ];
                default_action = ("discard", []);
              };
            ];
          pipeline = Prog.Apply "t";
        } );
      ( "unknown action in table",
        {
          base with
          Prog.tables =
            [
              {
                Prog.table_name = "t";
                keys = [ ("dst", Prog.Exact) ];
                action_refs = [ "missing" ];
                default_action = ("missing", []);
              };
            ];
          pipeline = Prog.Apply "t";
        } );
      ( "pipeline references unknown table",
        { base with Prog.pipeline = Prog.Apply "missing" } );
      ( "field width out of range",
        { base with Prog.fields = ("bad", 63) :: base.Prog.fields } );
      ( "duplicate field",
        { base with Prog.fields = ("dst", 32) :: base.Prog.fields } );
      ( "action references unknown param",
        {
          base with
          Prog.actions =
            {
              Prog.action_name = "oops";
              params = [];
              body = [ Prog.Forward (Prog.Param "nope") ];
            }
            :: base.Prog.actions;
        } );
    ]
  in
  List.iter
    (fun (what, prog) ->
      match Prog.validate prog with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "validator accepted: %s" what)
    broken

let test_pp_renders () =
  let out = Format.asprintf "%a" Prog.pp Prog.ecmp_router in
  check Alcotest.bool "mentions tables" true (String.length out > 200)

(* --- interpreter ------------------------------------------------------- *)

let simple_program =
  {
    Prog.name = "simple";
    fields = [ ("dst", 32); ("mark", 8) ];
    actions =
      [
        {
          Prog.action_name = "forward";
          params = [ ("port", 16) ];
          body = [ Prog.Forward (Prog.Param "port") ];
        };
        {
          Prog.action_name = "mark_and_forward";
          params = [ ("m", 8); ("port", 16) ];
          body =
            [
              Prog.Set_field ("mark", Prog.Param "m");
              Prog.Count "marked";
              Prog.Forward (Prog.Param "port");
            ];
        };
        { Prog.action_name = "discard"; params = []; body = [ Prog.Drop ] };
      ];
    tables =
      [
        {
          Prog.table_name = "route";
          keys = [ ("dst", Prog.Lpm) ];
          action_refs = [ "forward"; "mark_and_forward"; "discard" ];
          default_action = ("discard", []);
        };
      ];
    counters = [ "marked" ];
    pipeline = Prog.Apply "route";
  }

let ip_int s = Int32.to_int (Ipv4.to_int32 (Ipv4.of_string_exn s)) land 0xFFFFFFFF

let test_interp_lpm_longest_wins () =
  let e = Result.get_ok (Interp.create simple_program) in
  let insert key action args =
    match
      Interp.insert e
        { Interp.e_table = "route"; key; priority = 0; action; args }
    with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  in
  insert [ Interp.K_lpm (ip_int "10.0.0.0", 8) ] "forward" [ 1 ];
  insert [ Interp.K_lpm (ip_int "10.1.0.0", 16) ] "forward" [ 2 ];
  insert [ Interp.K_lpm (0, 0) ] "forward" [ 9 ];
  let run dst = Interp.exec e [ ("dst", ip_int dst) ] in
  check Alcotest.bool "/16 wins" true (run "10.1.2.3" = Interp.Forwarded 2);
  check Alcotest.bool "/8" true (run "10.9.9.9" = Interp.Forwarded 1);
  check Alcotest.bool "default /0" true (run "8.8.8.8" = Interp.Forwarded 9)

let test_interp_default_action () =
  let e = Result.get_ok (Interp.create simple_program) in
  check Alcotest.bool "empty table drops" true
    (Interp.exec e [ ("dst", 42) ] = Interp.Dropped)

let test_interp_counters_and_params () =
  let e = Result.get_ok (Interp.create simple_program) in
  (match
     Interp.insert e
       {
         Interp.e_table = "route";
         key = [ Interp.K_lpm (0, 0) ];
         priority = 0;
         action = "mark_and_forward";
         args = [ 7; 3 ];
       }
   with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  check Alcotest.int "counter starts at 0" 0 (Interp.counter e "marked");
  check Alcotest.bool "forwards to arg port" true
    (Interp.exec e [ ("dst", 1) ] = Interp.Forwarded 3);
  check Alcotest.bool "again" true (Interp.exec e [ ("dst", 2) ] = Interp.Forwarded 3);
  check Alcotest.int "counter counted" 2 (Interp.counter e "marked")

let test_interp_insert_validation () =
  let e = Result.get_ok (Interp.create simple_program) in
  let bad entry = Result.is_error (Interp.insert e entry) in
  check Alcotest.bool "unknown table" true
    (bad { Interp.e_table = "zzz"; key = []; priority = 0; action = "forward"; args = [ 1 ] });
  check Alcotest.bool "kind mismatch" true
    (bad
       {
         Interp.e_table = "route";
         key = [ Interp.K_exact 1 ];
         priority = 0;
         action = "forward";
         args = [ 1 ];
       });
  check Alcotest.bool "arity mismatch" true
    (bad
       {
         Interp.e_table = "route";
         key = [ Interp.K_lpm (0, 0) ];
         priority = 0;
         action = "forward";
         args = [];
       })

let ternary_program =
  {
    simple_program with
    Prog.name = "ternary";
    tables =
      [
        {
          Prog.table_name = "route";
          keys = [ ("dst", Prog.Ternary) ];
          action_refs = [ "forward"; "discard" ];
          default_action = ("discard", []);
        };
      ];
    pipeline = Prog.Apply "route";
  }

let test_interp_ternary_priority () =
  let e = Result.get_ok (Interp.create ternary_program) in
  let insert ~priority key action args =
    Result.get_ok
      (Interp.insert e { Interp.e_table = "route"; key; priority; action; args })
  in
  insert ~priority:1 [ Interp.K_ternary (0, 0) ] "forward" [ 1 ];
  insert ~priority:10 [ Interp.K_ternary (0x80, 0xF0) ] "forward" [ 2 ];
  check Alcotest.bool "specific mask with priority wins" true
    (Interp.exec e [ ("dst", 0x8F) ] = Interp.Forwarded 2);
  check Alcotest.bool "fallthrough" true
    (Interp.exec e [ ("dst", 0x7F) ] = Interp.Forwarded 1)

let test_interp_hash_deterministic () =
  let e = Result.get_ok (Interp.create Prog.ecmp_router) in
  Result.get_ok
    (Interp.insert e
       {
         Interp.e_table = "ipv4_lpm";
         key = [ Interp.K_lpm (0, 0) ];
         priority = 0;
         action = "set_group";
         args = [ 5; 4 ];
       });
  for member = 0 to 3 do
    Result.get_ok
      (Interp.insert e
         {
           Interp.e_table = "ecmp_select";
           key = [ Interp.K_exact 5; Interp.K_exact member ];
           priority = 0;
           action = "forward";
           args = [ 100 + member ];
         })
  done;
  let fields i =
    [ ("dst", 1000 + i); ("src", 7); ("sport", i); ("dport", 80); ("proto", 17) ]
  in
  (* Deterministic per flow. *)
  List.iter
    (fun i ->
      check Alcotest.bool "same flow same port" true
        (Interp.exec e (fields i) = Interp.exec e (fields i)))
    [ 0; 1; 2; 3; 4 ];
  (* Spreads across members. *)
  let ports = Hashtbl.create 4 in
  for i = 0 to 63 do
    match Interp.exec e (fields i) with
    | Interp.Forwarded p -> Hashtbl.replace ports p ()
    | Interp.Dropped -> Alcotest.fail "dropped"
  done;
  check Alcotest.bool "uses several members" true (Hashtbl.length ports >= 3)

(* --- runtime codec -------------------------------------------------------- *)

let gen_key =
  QCheck2.Gen.(
    oneof
      [
        map (fun v -> Interp.K_exact v) (int_bound 1_000_000);
        map2 (fun v l -> Interp.K_lpm (v, l)) (int_bound 1_000_000) (int_range 0 32);
        map2 (fun v m -> Interp.K_ternary (v, m)) (int_bound 1_000_000) (int_bound 0xFFFF);
      ])

let gen_name = QCheck2.Gen.(map (fun n -> Printf.sprintf "name%d" n) (int_bound 99))

let gen_request =
  let open QCheck2.Gen in
  oneof
    [
      return Runtime.Hello;
      (let* e_table = gen_name in
       let* key = list_size (int_range 0 4) gen_key in
       let* priority = int_bound 1000 in
       let* action = gen_name in
       let* args = list_size (int_range 0 4) (int_bound 100000) in
       return (Runtime.Insert { Interp.e_table; key; priority; action; args }));
      (let* d_table = gen_name in
       let* d_key = list_size (int_range 0 4) gen_key in
       return (Runtime.Delete { d_table; d_key }));
      map (fun c -> Runtime.Counter_read c) gen_name;
    ]

let gen_response =
  let open QCheck2.Gen in
  oneof
    [
      return Runtime.Ack;
      map (fun m -> Runtime.Nack m) gen_name;
      map2 (fun c v -> Runtime.Counter_value (c, v)) gen_name (int_bound 1_000_000);
    ]

let prop_request_roundtrip =
  qtest "p4runtime: request roundtrip"
    (QCheck2.Gen.pair (QCheck2.Gen.int_bound 0xFFFF) gen_request)
    (fun (xid, req) ->
      match Runtime.decode_request (Runtime.encode_request ~xid req) with
      | Ok (xid', req') -> xid = xid' && Runtime.request_equal req req'
      | Error _ -> false)

let prop_response_roundtrip =
  qtest "p4runtime: response roundtrip"
    (QCheck2.Gen.pair (QCheck2.Gen.int_bound 0xFFFF) gen_response)
    (fun (xid, resp) ->
      match Runtime.decode_response (Runtime.encode_response ~xid resp) with
      | Ok (xid', resp') -> xid = xid' && Runtime.response_equal resp resp'
      | Error _ -> false)

let prop_runtime_decode_total =
  qtest ~count:500 "p4runtime: decoders never raise on arbitrary bytes"
    QCheck2.Gen.(map Bytes.of_string (string_size (int_range 0 120)))
    (fun junk ->
      (match Runtime.decode_request junk with Ok _ | Error _ -> ());
      (match Runtime.decode_response junk with Ok _ | Error _ -> ());
      true)

(* --- agent over a channel --------------------------------------------------- *)

let test_agent_programming () =
  let sched = Sched.create () in
  let chan = Channel.create sched ~latency:(Time.of_ms 1) () in
  let sw_end, ctrl_end = Channel.endpoints chan in
  let agent =
    Result.get_ok
      (Agent.create
         (Process.create sched ~name:"p4sw")
         ~program:simple_program
         ~ports:[ (1, 100); (2, 200) ]
         sw_end)
  in
  let responses = ref [] in
  Channel.set_receiver ctrl_end (fun bytes ->
      match Runtime.decode_response bytes with
      | Ok (xid, r) -> responses := (xid, r) :: !responses
      | Error e -> Alcotest.fail e);
  let send xid req = Channel.send ctrl_end (Runtime.encode_request ~xid req) in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         send 1
           (Runtime.Insert
              {
                Interp.e_table = "route";
                key = [ Interp.K_lpm (0, 0) ];
                priority = 0;
                action = "forward";
                args = [ 2 ];
              });
         send 2
           (Runtime.Insert
              {
                Interp.e_table = "nonsense";
                key = [];
                priority = 0;
                action = "forward";
                args = [ 1 ];
              });
         send 3 (Runtime.Counter_read "marked")));
  ignore (Sched.run ~until:(Time.of_ms 100) sched);
  check Alcotest.int "one write applied" 1 (Agent.writes_applied agent);
  check Alcotest.int "one nack" 1 (Agent.nacks_sent agent);
  let find xid = List.assoc_opt xid !responses in
  check Alcotest.bool "insert acked" true (find 1 = Some Runtime.Ack);
  check Alcotest.bool "bad insert nacked" true
    (match find 2 with Some (Runtime.Nack _) -> true | _ -> false);
  check Alcotest.bool "counter read" true
    (find 3 = Some (Runtime.Counter_value ("marked", 0)));
  check Alcotest.bool "pipeline works" true
    (Agent.process agent [ ("dst", 5) ] = Interp.Forwarded 2);
  check (Alcotest.option Alcotest.int) "port mapping" (Some 200)
    (Agent.link_of_port agent 2)

(* --- P4 fabric end-to-end ---------------------------------------------------- *)

let test_p4_fabric_fat_tree () =
  let ft = Fat_tree.build ~k:4 () in
  let exp = Experiment.create ft.Fat_tree.topo in
  let fabric =
    Result.get_ok (P4_fabric.build ~cm:(Experiment.cm exp) ft.Fat_tree.topo)
  in
  let programmed_at = ref None in
  Experiment.at exp Time.zero (fun () -> P4_fabric.program_routes fabric);
  P4_fabric.when_programmed fabric (fun () ->
      programmed_at := Some (Sched.now (Experiment.scheduler exp)));
  let stats = Experiment.run ~until:(Time.of_sec 5.0) exp in
  check Alcotest.bool "entries sent" true (P4_fabric.entries_sent fabric > 100);
  check Alcotest.int "no nacks" 0 (P4_fabric.nacks_received fabric);
  check Alcotest.bool "programming finished" true (P4_fabric.programmed fabric);
  check Alcotest.bool "reported" true (!programmed_at <> None);
  check Alcotest.bool "programming held the clock in FTI" true
    (stats.Sched.fti_increments > 0);
  (* Every host pair resolves through the pipelines. *)
  let hosts = ft.Fat_tree.hosts in
  let used_cores = Hashtbl.create 8 in
  Array.iteri
    (fun i (src : Topology.node) ->
      Array.iteri
        (fun j (dst : Topology.node) ->
          if i <> j then begin
            let key =
              Flow_key.make
                ~src:(Option.get src.Topology.ip)
                ~dst:(Option.get dst.Topology.ip)
                ~src_port:(1000 + i) ~dst_port:(2000 + j) ()
            in
            match P4_fabric.path_for fabric key with
            | Ok path ->
                List.iter
                  (fun (l : Topology.link) ->
                    let n = Topology.node ft.Fat_tree.topo l.Topology.dst in
                    if String.length n.Topology.name >= 4
                       && String.sub n.Topology.name 0 4 = "core"
                    then Hashtbl.replace used_cores n.Topology.id ())
                  path;
                (* Paths are hop-count shortest: same pod 2 or 4, inter-pod 6. *)
                let hops = List.length path in
                if hops <> 2 && hops <> 4 && hops <> 6 then
                  Alcotest.failf "unexpected path length %d" hops
            | Error msg -> Alcotest.failf "unroutable: %s" msg
          end)
        hosts)
    hosts;
  check Alcotest.bool "ECMP spreads over several cores" true
    (Hashtbl.length used_cores >= 2);
  (* Counters: run some packets through an edge switch and read its
     counter over the runtime channel. *)
  let edge = ft.Fat_tree.edges.(0).(0) in
  let got = ref None in
  Experiment.at exp (Time.of_sec 6.0) (fun () ->
      P4_fabric.read_counter fabric ~dpid:edge.Topology.id "routed" (fun v ->
          got := Some v));
  ignore (Experiment.run ~until:(Time.of_sec 7.0) exp);
  match !got with
  | Some v -> check Alcotest.bool "routed counter grew" true (v > 0)
  | None -> Alcotest.fail "counter read never answered"

let () =
  Alcotest.run "horse_p4"
    [
      ( "program",
        [
          Alcotest.test_case "ecmp_router validates" `Quick test_ecmp_router_valid;
          Alcotest.test_case "validator catches errors" `Quick test_validate_catches;
          Alcotest.test_case "pretty printer" `Quick test_pp_renders;
        ] );
      ( "interp",
        [
          Alcotest.test_case "lpm longest wins" `Quick test_interp_lpm_longest_wins;
          Alcotest.test_case "default action" `Quick test_interp_default_action;
          Alcotest.test_case "counters and params" `Quick
            test_interp_counters_and_params;
          Alcotest.test_case "insert validation" `Quick test_interp_insert_validation;
          Alcotest.test_case "ternary priority" `Quick test_interp_ternary_priority;
          Alcotest.test_case "hash deterministic + spreads" `Quick
            test_interp_hash_deterministic;
        ] );
      ( "runtime",
        [ prop_request_roundtrip; prop_response_roundtrip;
          prop_runtime_decode_total;
          Alcotest.test_case "agent programming" `Quick test_agent_programming ] );
      ( "fabric",
        [ Alcotest.test_case "fat-tree end-to-end" `Quick test_p4_fabric_fat_tree ] );
    ]
