(* Tests for horse_bgp: message codec, RIB decision process, policy,
   and live speaker sessions over emulated channels. *)

open Horse_net
open Horse_engine
open Horse_emulation
open Horse_bgp

let check = Alcotest.check
let qtest = Horse_test_support.qtest

let p = Prefix.of_string_exn
let ip = Ipv4.of_string_exn

(* --- codec ------------------------------------------------------------- *)

let gen_prefix =
  QCheck2.Gen.map2
    (fun a len -> Prefix.make (Ipv4.of_int32 a) len)
    QCheck2.Gen.int32 (QCheck2.Gen.int_range 0 32)

let gen_attrs =
  let open QCheck2.Gen in
  let* origin = oneofl [ Msg.Igp; Msg.Egp; Msg.Incomplete ] in
  let* as_path = list_size (int_range 0 8) (int_range 1 65535) in
  let* next_hop = map Ipv4.of_int32 int32 in
  let* med = option (int_range 0 1000) in
  let* local_pref = option (int_range 0 1000) in
  let* communities =
    list_size (int_range 0 5)
      (map2 (fun asn v -> Msg.community ~asn v) (int_range 1 65535) (int_range 0 65535))
  in
  return { Msg.origin; as_path; next_hop; med; local_pref; communities }

let gen_msg =
  let open QCheck2.Gen in
  oneof
    [
      return Msg.Keepalive;
      (let* code = int_range 1 6 in
       let* subcode = int_range 0 10 in
       return (Msg.Notification { code; subcode }));
      (let* asn = int_range 1 65535 in
       let* hold_time_s = int_range 3 65535 in
       let* bgp_id = map Ipv4.of_int32 int32 in
       return (Msg.Open { asn; hold_time_s; bgp_id }));
      (let* withdrawn = list_size (int_range 0 5) gen_prefix in
       let* reach =
         option
           (let* attrs = gen_attrs in
            let* nlri = list_size (int_range 1 6) gen_prefix in
            return (attrs, nlri))
       in
       return (Msg.Update { withdrawn; reach }));
    ]

let prop_msg_roundtrip =
  qtest ~count:500 "bgp msg: encode/decode roundtrip" gen_msg (fun m ->
      match Msg.decode (Msg.encode m) with
      | Ok m' -> Msg.equal m m'
      | Error _ -> false)

let prop_msg_decode_total =
  qtest ~count:500 "bgp msg: decoder never raises on arbitrary bytes"
    QCheck2.Gen.(map Bytes.of_string (string_size (int_range 0 100)))
    (fun junk -> match Msg.decode junk with Ok _ | Error _ -> true)

let prop_msg_decode_total_mutated =
  qtest ~count:300 "bgp msg: decoder never raises on mutated messages"
    (QCheck2.Gen.triple gen_msg (QCheck2.Gen.int_bound 300) (QCheck2.Gen.int_bound 255))
    (fun (m, pos, v) ->
      let buf = Msg.encode m in
      if Bytes.length buf > 0 then
        Bytes.set_uint8 buf (pos mod Bytes.length buf) v;
      match Msg.decode buf with Ok _ | Error _ -> true)

(* The direct decoder against the Result-monad decoder it replaced:
   well-formed messages, messages with 1-5 bytes overwritten anywhere
   or only past the header, truncations whose length field is rewritten
   to match (so they get past the header checks), and junk. Both must
   build equal messages or fail with byte-equal errors. *)
let gen_decoder_input =
  let open QCheck2.Gen in
  let overwrite ~from buf edits =
    let n = Bytes.length buf in
    if n > from then
      List.iter
        (fun (pos, v) -> Bytes.set_uint8 buf (from + (pos mod (n - from))) v)
        edits;
    buf
  in
  (* Small byte values half the time: lengths, counts, type codes and
     ORIGIN values just past their valid range. *)
  let byte = frequency [ (1, int_bound 255); (1, int_bound 8) ] in
  let edits = list_size (int_range 1 5) (pair (int_bound 4095) byte) in
  let truncate buf cut =
    let len = cut mod (Bytes.length buf + 1) in
    let buf = Bytes.sub buf 0 len in
    if len >= 18 then Bytes.set_uint16_be buf 16 len;
    buf
  in
  let encoded = map Msg.encode gen_msg in
  oneof
    [
      encoded;
      map2 (overwrite ~from:0) encoded edits;
      map2 (overwrite ~from:Msg.header_size) encoded edits;
      map2 truncate encoded (int_bound 4095);
      map Bytes.of_string (string_size (int_range 0 100));
    ]

let prop_msg_decode_matches_reference =
  qtest ~count:3000 "bgp msg: decoder == reference decoder (values and errors)"
    gen_decoder_input (fun buf ->
      match (Msg.decode buf, Horse_test_support.bgp_decode_reference buf) with
      | Ok m, Ok m' -> Msg.equal m m'
      | Error e, Error e' -> String.equal e e'
      | Ok _, Error _ | Error _, Ok _ -> false)

let test_msg_header_layout () =
  let buf = Msg.encode Msg.Keepalive in
  check Alcotest.int "keepalive is 19 bytes" 19 (Bytes.length buf);
  for i = 0 to 15 do
    check Alcotest.int "marker byte" 0xFF (Bytes.get_uint8 buf i)
  done;
  check Alcotest.int "length field" 19 (Bytes.get_uint16_be buf 16);
  check Alcotest.int "type keepalive" 4 (Bytes.get_uint8 buf 18)

let test_msg_bad_input () =
  let reject what buf =
    match Msg.decode buf with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" what
  in
  reject "empty" Bytes.empty;
  let bad_marker = Msg.encode Msg.Keepalive in
  Bytes.set_uint8 bad_marker 3 0;
  reject "bad marker" bad_marker;
  let bad_len = Msg.encode Msg.Keepalive in
  Bytes.set_uint16_be bad_len 16 25;
  reject "bad length" bad_len;
  let bad_type = Msg.encode Msg.Keepalive in
  Bytes.set_uint8 bad_type 18 9;
  reject "unknown type" bad_type

let test_update_wire_format () =
  let attrs =
    {
      Msg.origin = Msg.Igp;
      as_path = [ 65001; 65002 ];
      next_hop = ip "10.0.0.1";
      med = None;
      local_pref = None;
      communities = [];
    }
  in
  let u = Msg.Update { withdrawn = []; reach = Some (attrs, [ p "10.1.0.0/16" ]) } in
  let buf = Msg.encode u in
  (* type 2, withdrawn len 0 *)
  check Alcotest.int "type" 2 (Bytes.get_uint8 buf 18);
  check Alcotest.int "withdrawn length" 0 (Bytes.get_uint16_be buf 19);
  (* NLRI at the tail: len byte 16 then 10.1 *)
  let n = Bytes.length buf in
  check Alcotest.int "nlri length byte" 16 (Bytes.get_uint8 buf (n - 3));
  check Alcotest.int "nlri octet 1" 10 (Bytes.get_uint8 buf (n - 2));
  check Alcotest.int "nlri octet 2" 1 (Bytes.get_uint8 buf (n - 1))

(* --- RIB / decision process -------------------------------------------- *)

let attrs ?(origin = Msg.Igp) ?(path = [ 65001 ]) ?med ?local_pref
    ?(communities = []) nh =
  { Msg.origin; as_path = path; next_hop = ip nh; med; local_pref; communities }

let test_decision_local_pref () =
  let rib = Rib.create () in
  let id = Rib.id rib (p "10.0.0.0/8") in
  Rib.set_in_id rib ~peer:0 ~peer_bgp_id:(ip "1.1.1.1") ~at:Time.zero id
    (attrs ~local_pref:200 ~path:[ 1; 2; 3 ] "10.0.1.1");
  Rib.set_in_id rib ~peer:1 ~peer_bgp_id:(ip "2.2.2.2") ~at:Time.zero id
    (attrs ~local_pref:100 ~path:[ 1 ] "10.0.2.1");
  (match Rib.refresh_id ~multipath:true rib id with
  | Rib.Changed [ best ] ->
      check Alcotest.int "higher local-pref wins despite longer path" 0
        best.Rib.peer
  | Rib.Changed _ | Rib.Unchanged -> Alcotest.fail "expected single winner");
  ()

let test_decision_as_path_len () =
  let rib = Rib.create () in
  let id = Rib.id rib (p "10.0.0.0/8") in
  Rib.set_in_id rib ~peer:0 ~peer_bgp_id:(ip "1.1.1.1") ~at:Time.zero id
    (attrs ~path:[ 1; 2 ] "10.0.1.1");
  Rib.set_in_id rib ~peer:1 ~peer_bgp_id:(ip "2.2.2.2") ~at:Time.zero id
    (attrs ~path:[ 3 ] "10.0.2.1");
  match Rib.refresh_id ~multipath:true rib id with
  | Rib.Changed [ best ] -> check Alcotest.int "shorter path wins" 1 best.Rib.peer
  | Rib.Changed _ | Rib.Unchanged -> Alcotest.fail "expected single winner"

let test_decision_origin_and_med () =
  let rib = Rib.create () in
  let id = Rib.id rib (p "10.0.0.0/8") in
  (* same path length: origin decides *)
  Rib.set_in_id rib ~peer:0 ~peer_bgp_id:(ip "1.1.1.1") ~at:Time.zero id
    (attrs ~origin:Msg.Incomplete ~path:[ 5 ] "10.0.1.1");
  Rib.set_in_id rib ~peer:1 ~peer_bgp_id:(ip "2.2.2.2") ~at:Time.zero id
    (attrs ~origin:Msg.Igp ~path:[ 5 ] "10.0.2.1");
  (match Rib.refresh_id ~multipath:true rib id with
  | Rib.Changed [ best ] -> check Alcotest.int "igp beats incomplete" 1 best.Rib.peer
  | Rib.Changed _ | Rib.Unchanged -> Alcotest.fail "expected winner");
  (* same neighbour AS: MED decides *)
  Rib.set_in_id rib ~peer:0 ~peer_bgp_id:(ip "1.1.1.1") ~at:Time.zero id
    (attrs ~origin:Msg.Igp ~path:[ 5 ] ~med:10 "10.0.1.1");
  Rib.set_in_id rib ~peer:1 ~peer_bgp_id:(ip "2.2.2.2") ~at:Time.zero id
    (attrs ~origin:Msg.Igp ~path:[ 5 ] ~med:5 "10.0.2.1");
  match Rib.refresh_id ~multipath:true rib id with
  | Rib.Changed [ best ] -> check Alcotest.int "lower med wins" 1 best.Rib.peer
  | Rib.Changed _ | Rib.Unchanged -> Alcotest.fail "expected winner"

let test_decision_multipath () =
  let rib = Rib.create () in
  let id = Rib.id rib (p "10.0.0.0/8") in
  (* Equal on all tie-break dimensions except bgp-id: multipath keeps
     both, single-path keeps the lower id. *)
  Rib.set_in_id rib ~peer:0 ~peer_bgp_id:(ip "2.2.2.2") ~at:Time.zero id
    (attrs ~path:[ 7 ] "10.0.1.1");
  Rib.set_in_id rib ~peer:1 ~peer_bgp_id:(ip "1.1.1.1") ~at:Time.zero id
    (attrs ~path:[ 8 ] "10.0.2.1");
  (match Rib.refresh_id ~multipath:true rib id with
  | Rib.Changed routes -> check Alcotest.int "both kept" 2 (List.length routes)
  | Rib.Unchanged -> Alcotest.fail "expected change");
  match Rib.refresh_id ~multipath:false rib id with
  | Rib.Changed [ best ] ->
      check Alcotest.string "lower bgp id wins" "1.1.1.1"
        (Ipv4.to_string best.Rib.peer_bgp_id)
  | Rib.Changed _ -> Alcotest.fail "expected single"
  | Rib.Unchanged -> Alcotest.fail "expected change"

let test_rib_withdraw_and_drop_peer () =
  let rib = Rib.create () in
  let id = Rib.id rib (p "10.0.0.0/8") in
  Rib.set_in_id rib ~peer:0 ~peer_bgp_id:(ip "1.1.1.1") ~at:Time.zero id
    (attrs "10.0.1.1");
  ignore (Rib.refresh_id ~multipath:true rib id);
  check Alcotest.int "installed" 1 (Rib.loc_rib_size rib);
  Rib.withdraw_in_id rib ~peer:0 id;
  (match Rib.refresh_id ~multipath:true rib id with
  | Rib.Changed [] -> ()
  | Rib.Changed _ | Rib.Unchanged -> Alcotest.fail "expected removal");
  check Alcotest.int "empty" 0 (Rib.loc_rib_size rib);
  (* drop_peer_ids returns the affected ids *)
  Rib.set_in_id rib ~peer:3 ~peer_bgp_id:(ip "3.3.3.3") ~at:Time.zero id
    (attrs "10.0.3.1");
  Rib.set_in_id rib ~peer:3 ~peer_bgp_id:(ip "3.3.3.3") ~at:Time.zero
    (Rib.id rib (p "11.0.0.0/8")) (attrs "10.0.3.1");
  let affected = Rib.drop_peer_ids rib ~peer:3 in
  check Alcotest.int "two affected" 2 (List.length affected);
  check Alcotest.int "adj-in empty" 0 (List.length (Rib.adj_in rib ~peer:3))

let test_rib_refresh_unchanged () =
  let rib = Rib.create () in
  let id = Rib.id rib (p "10.0.0.0/8") in
  Rib.set_in_id rib ~peer:0 ~peer_bgp_id:(ip "1.1.1.1") ~at:Time.zero id
    (attrs "10.0.1.1");
  (match Rib.refresh_id ~multipath:true rib id with
  | Rib.Changed _ -> ()
  | Rib.Unchanged -> Alcotest.fail "first refresh must change");
  match Rib.refresh_id ~multipath:true rib id with
  | Rib.Unchanged -> ()
  | Rib.Changed _ -> Alcotest.fail "second refresh must be stable"

(* --- policy ------------------------------------------------------------- *)

let test_policy_communities () =
  let no_export = Msg.community ~asn:65001 666 in
  let tagged = attrs ~communities:[ no_export ] "10.0.0.1" in
  let plain = attrs "10.0.0.1" in
  let pol =
    Policy.make
      [
        { Policy.match_ = Policy.Has_community no_export; action = Policy.Reject };
        {
          Policy.match_ = Policy.Any;
          action =
            Policy.Accept_with
              [ Policy.Add_community (Msg.community ~asn:65001 100) ];
        };
      ]
  in
  check Alcotest.bool "tagged route rejected" true
    (Policy.eval pol (p "10.0.0.0/8") tagged = None);
  (match Policy.eval pol (p "10.0.0.0/8") plain with
  | Some a ->
      check (Alcotest.list Alcotest.int) "community added"
        [ Msg.community ~asn:65001 100 ]
        a.Msg.communities
  | None -> Alcotest.fail "plain route should pass");
  let remover =
    Policy.make
      [
        {
          Policy.match_ = Policy.Any;
          action = Policy.Accept_with [ Policy.Remove_community no_export ];
        };
      ]
  in
  match Policy.eval remover (p "10.0.0.0/8") tagged with
  | Some a -> check (Alcotest.list Alcotest.int) "community removed" [] a.Msg.communities
  | None -> Alcotest.fail "remover should accept"

let test_communities_propagate () =
  (* A community attached by an export policy must survive the eBGP
     hop and arrive at the peer (transitive attribute). *)
  let tag = Msg.community ~asn:65001 300 in
  let sched2 = Sched.create () in
  let chan = Channel.create sched2 () in
  let ep_a, ep_b = Channel.endpoints chan in
  let a2 =
    Speaker.create
      (Process.create sched2)
      {
        (Speaker.default_config ~asn:65001 ~router_id:(ip "1.1.1.1")) with
        Speaker.networks = [ p "10.1.0.0/16" ];
      }
  in
  let b2 =
    Speaker.create
      (Process.create sched2)
      (Speaker.default_config ~asn:65002 ~router_id:(ip "2.2.2.2"))
  in
  let export =
    Policy.make
      [
        {
          Policy.match_ = Policy.Exact (p "10.1.0.0/16");
          action = Policy.Accept_with [ Policy.Add_community tag ];
        };
      ]
  in
  ignore (Speaker.add_peer ~export a2 ~remote_asn:65002 ep_a);
  ignore (Speaker.add_peer b2 ~remote_asn:65001 ep_b);
  ignore
    (Sched.schedule_at sched2 Time.zero (fun () ->
         Speaker.start a2;
         Speaker.start b2));
  ignore (Sched.run ~until:(Time.of_sec 5.0) sched2);
  match Speaker.best b2 (p "10.1.0.0/16") with
  | [ r ] ->
      check (Alcotest.list Alcotest.int) "community arrived" [ tag ]
        r.Rib.attrs.Msg.communities
  | routes -> Alcotest.failf "b2 has %d routes" (List.length routes)

let test_policy () =
  let a = attrs "10.0.0.1" in
  let pol =
    Policy.make
      [
        { Policy.match_ = Policy.Exact (p "10.0.0.0/8"); action = Policy.Reject };
        {
          Policy.match_ = Policy.Within (p "192.168.0.0/16");
          action = Policy.Accept_with [ Policy.Set_local_pref 200 ];
        };
      ]
  in
  check Alcotest.bool "exact reject" true (Policy.eval pol (p "10.0.0.0/8") a = None);
  check Alcotest.bool "non-match accepted" true
    (Policy.eval pol (p "10.1.0.0/16") a <> None);
  (match Policy.eval pol (p "192.168.7.0/24") a with
  | Some a' -> check (Alcotest.option Alcotest.int) "local pref set" (Some 200) a'.Msg.local_pref
  | None -> Alcotest.fail "within should accept");
  let prepender =
    Policy.make
      [ { Policy.match_ = Policy.Any; action = Policy.Accept_with [ Policy.Prepend (65000, 3) ] } ]
  in
  match Policy.eval prepender (p "1.0.0.0/8") a with
  | Some a' ->
      check Alcotest.int "prepended three" (3 + List.length a.Msg.as_path)
        (List.length a'.Msg.as_path)
  | None -> Alcotest.fail "prepend should accept"

(* --- live speakers -------------------------------------------------------- *)

(* Two routers exchanging one prefix each — the paper's Figure 1
   setup. *)
let two_routers ?(config_a = fun c -> c) ?(config_b = fun c -> c) () =
  let sched_config =
    { Sched.default_config with Sched.quiet_timeout = Time.of_sec 1.0 }
  in
  let sched = Sched.create ~config:sched_config () in
  let chan = Channel.create sched () in
  let ep_a, ep_b = Channel.endpoints chan in
  (* Mimic the CM: any BGP byte holds the clock in FTI. *)
  Channel.set_observer chan (fun _ _ -> Sched.control_activity sched);
  let proc_a = Process.create sched in
  let proc_b = Process.create sched in
  let a =
    Speaker.create proc_a
      (config_a
         {
           (Speaker.default_config ~asn:65001 ~router_id:(ip "1.1.1.1")) with
           Speaker.networks = [ p "10.1.0.0/16" ];
         })
  in
  let b =
    Speaker.create proc_b
      (config_b
         {
           (Speaker.default_config ~asn:65002 ~router_id:(ip "2.2.2.2")) with
           Speaker.networks = [ p "10.2.0.0/16" ];
         })
  in
  let peer_ab = Speaker.add_peer a ~remote_asn:65002 ep_a in
  let peer_ba = Speaker.add_peer b ~remote_asn:65001 ep_b in
  (sched, chan, a, b, proc_a, proc_b, peer_ab, peer_ba)

let test_session_establishment_and_exchange () =
  let sched, _, a, b, _, _, peer_ab, peer_ba = two_routers () in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Speaker.start a;
         Speaker.start b));
  let stats = Sched.run ~until:(Time.of_sec 30.0) sched in
  check Alcotest.bool "a established" true
    (Speaker.peer_state a peer_ab = Speaker.Established);
  check Alcotest.bool "b established" true
    (Speaker.peer_state b peer_ba = Speaker.Established);
  (* Each learned the other's prefix. *)
  (match Speaker.best a (p "10.2.0.0/16") with
  | [ r ] ->
      check (Alcotest.list Alcotest.int) "as path" [ 65002 ] r.Rib.attrs.Msg.as_path;
      check Alcotest.string "next hop" "2.2.2.2"
        (Ipv4.to_string r.Rib.attrs.Msg.next_hop)
  | _ -> Alcotest.fail "a did not learn 10.2.0.0/16");
  (match Speaker.best b (p "10.1.0.0/16") with
  | [ _ ] -> ()
  | _ -> Alcotest.fail "b did not learn 10.1.0.0/16");
  (* The engine entered FTI during the exchange and fell back to DES
     after convergence — Figure 1's pattern. *)
  check Alcotest.bool "entered FTI" true (stats.Sched.fti_increments > 0);
  (match stats.Sched.transitions with
  | [] -> Alcotest.fail "no mode transitions"
  | transitions ->
      let last = List.nth transitions (List.length transitions - 1) in
      check Alcotest.string "finally DES" "DES"
        (Sched.mode_to_string last.Sched.to_mode));
  let counters = Speaker.counters a in
  check Alcotest.bool "updates flowed" true (counters.Speaker.updates_sent >= 1);
  check Alcotest.bool "keepalives flowed" true
    (counters.Speaker.keepalives_sent > 1)

let test_runtime_announce_and_withdraw () =
  let sched, _, a, b, _, _, _, _ = two_routers () in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Speaker.start a;
         Speaker.start b));
  ignore
    (Sched.schedule_at sched (Time.of_sec 5.0) (fun () ->
         Speaker.announce a (p "99.0.0.0/8")));
  ignore (Sched.run ~until:(Time.of_sec 8.0) sched);
  (match Speaker.best b (p "99.0.0.0/8") with
  | [ _ ] -> ()
  | _ -> Alcotest.fail "runtime announcement not propagated");
  ignore
    (Sched.schedule_at sched (Time.of_sec 9.0) (fun () ->
         Speaker.withdraw_network a (p "99.0.0.0/8")));
  ignore (Sched.run ~until:(Time.of_sec 12.0) sched);
  match Speaker.best b (p "99.0.0.0/8") with
  | [] -> ()
  | _ -> Alcotest.fail "withdraw not propagated"

(* A withdrawal of a prefix the RIB never held changes nothing and
   gives the prefix no id (ids are never reclaimed). *)
let test_withdraw_unknown_prefix () =
  let sched, chan, a, b, _, _, _, _ = two_routers () in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Speaker.start a;
         Speaker.start b));
  ignore (Sched.run ~until:(Time.of_sec 5.0) sched);
  let unknown = p "192.0.2.0/24" in
  let routes = Speaker.routes a in
  let received = (Speaker.counters a).Speaker.updates_received in
  let _, ep_b = Channel.endpoints chan in
  ignore
    (Sched.schedule_at sched (Time.of_sec 6.0) (fun () ->
         Channel.send ep_b
           (Msg.encode
              (Msg.Update { withdrawn = [ unknown ]; reach = None }))));
  ignore (Sched.run ~until:(Time.of_sec 8.0) sched);
  check Alcotest.int "no id for the unknown prefix" (-1)
    (Rib.find_id (Speaker.rib a) unknown);
  check Alcotest.int "update received" (received + 1)
    (Speaker.counters a).Speaker.updates_received;
  check Alcotest.bool "Loc-RIB unchanged" true (Speaker.routes a = routes)

(* Path exploration: one peer re-announces one prefix with 1,000
   distinct AS paths. Each replaced record is freed together with the
   export-memo entry keyed on it, so the speaker keeps a handful of
   records rather than one per path it ever saw. *)
let test_attr_records_freed_under_churn () =
  let sched, chan, a, b, _, _, _, _ = two_routers () in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Speaker.start a;
         Speaker.start b));
  ignore (Sched.run ~until:(Time.of_sec 5.0) sched);
  let _, ep_b = Channel.endpoints chan in
  let prefix = p "10.9.0.0/16" in
  let paths = 1000 in
  for i = 1 to paths do
    ignore
      (Sched.schedule_at sched
         (Time.of_us (6_000_000 + (i * 1000)))
         (fun () ->
           Channel.send ep_b
             (Msg.encode
                (Msg.Update
                   {
                     withdrawn = [];
                     reach =
                       Some (attrs ~path:[ 65002; 1000 + i ] "2.2.2.2", [ prefix ]);
                   }))))
  done;
  ignore (Sched.run ~until:(Time.of_sec 8.0) sched);
  (match Speaker.best a prefix with
  | [ r ] ->
      check (Alcotest.list Alcotest.int) "last path wins" [ 65002; 1000 + paths ]
        r.Rib.attrs.Msg.as_path
  | routes -> Alcotest.failf "a has %d routes" (List.length routes));
  (* Three Loc-RIB records (the local route, b's own prefix, the last
     path) and the export of each. *)
  check Alcotest.int "records live" 6
    (Attr_intern.size (Rib.intern_table (Speaker.rib a)))

(* One UPDATE that withdraws a prefix and announces it again with equal
   attributes changes nothing: the Loc-RIB route holds the record
   through the withdrawal, so the announcement finds the same uid, the
   decision reports no change and no UPDATE goes out. *)
let test_withdraw_reannounce_one_update () =
  let sched = Sched.create () in
  let mk name asn networks =
    Speaker.create
      (Process.create sched)
      { (Speaker.default_config ~asn ~router_id:(ip name)) with Speaker.networks }
  in
  let a = mk "1.1.1.1" 65001 [] in
  let b = mk "2.2.2.2" 65002 [ p "10.2.0.0/16" ] in
  let c = mk "3.3.3.3" 65003 [] in
  let connect x y =
    let chan = Channel.create sched () in
    let ex, ey = Channel.endpoints chan in
    ignore (Speaker.add_peer x ~remote_asn:(Speaker.asn y) ex);
    ignore (Speaker.add_peer y ~remote_asn:(Speaker.asn x) ey);
    ey
  in
  let from_b = connect a b in
  ignore (connect a c);
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         List.iter Speaker.start [ a; b; c ]));
  ignore (Sched.run ~until:(Time.of_sec 5.0) sched);
  let prefix = p "10.2.0.0/16" in
  let uid_of s =
    match Speaker.best s prefix with
    | [ r ] -> r.Rib.iattrs.Attr_intern.uid
    | routes -> Alcotest.failf "%d routes" (List.length routes)
  in
  let uid = uid_of a in
  ignore (uid_of c);
  let changes = ref 0 in
  Speaker.on_loc_rib_change a (fun _ _ -> incr changes);
  let before = Speaker.counters a in
  ignore
    (Sched.schedule_at sched (Time.of_sec 6.0) (fun () ->
         Channel.send from_b
           (Msg.encode
              (Msg.Update
                 {
                   withdrawn = [ prefix ];
                   reach = Some (attrs ~path:[ 65002 ] "2.2.2.2", [ prefix ]);
                 }))));
  ignore (Sched.run ~until:(Time.of_sec 8.0) sched);
  let after = Speaker.counters a in
  check Alcotest.int "update received" (before.Speaker.updates_received + 1)
    after.Speaker.updates_received;
  check Alcotest.int "no Loc-RIB change" 0 !changes;
  check Alcotest.int "same record" uid (uid_of a);
  check Alcotest.int "no UPDATE sent" before.Speaker.updates_sent
    after.Speaker.updates_sent

let test_hold_timer_expiry_on_kill () =
  let sched, _, a, b, proc_a, _, _, peer_ba = two_routers () in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Speaker.start a;
         Speaker.start b));
  ignore (Sched.run ~until:(Time.of_sec 5.0) sched);
  check Alcotest.bool "learned before kill" true
    (Speaker.best b (p "10.1.0.0/16") <> []);
  (* Crash router A: no NOTIFICATION, peers detect via hold timer. *)
  ignore (Sched.schedule_at sched (Time.of_sec 6.0) (fun () -> Process.kill proc_a));
  ignore (Sched.run ~until:(Time.of_sec 30.0) sched);
  (* ConnectRetry keeps probing the dead peer, so the session sits in
     Idle or OpenSent — anything but Established. *)
  check Alcotest.bool "session dropped" true
    (Speaker.peer_state b peer_ba <> Speaker.Established);
  check Alcotest.bool "routes retracted" true (Speaker.best b (p "10.1.0.0/16") = [])

(* The self-healing acceptance check: kill a speaker, restart it, and
   the session must come back through ConnectRetry alone — no
   fabric-level start_peer / replace_endpoint intervention. *)
let test_connect_retry_after_restart () =
  let sched, _, a, b, proc_a, _, peer_ab, peer_ba = two_routers () in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Speaker.start a;
         Speaker.start b));
  ignore (Sched.run ~until:(Time.of_sec 5.0) sched);
  ignore (Sched.schedule_at sched (Time.of_sec 6.0) (fun () -> Process.kill proc_a));
  (* Restart before B's hold timer has even expired: B still thinks
     the session is up, A's ConnectRetry OPEN must displace the stale
     session. *)
  ignore
    (Sched.schedule_at sched (Time.of_sec 10.0) (fun () -> Process.restart proc_a));
  ignore (Sched.run ~until:(Time.of_sec 40.0) sched);
  check Alcotest.bool "a re-established" true
    (Speaker.peer_state a peer_ab = Speaker.Established);
  check Alcotest.bool "b re-established" true
    (Speaker.peer_state b peer_ba = Speaker.Established);
  check Alcotest.bool "b re-learned a's prefix" true
    (Speaker.best b (p "10.1.0.0/16") <> []);
  check Alcotest.bool "a re-learned b's prefix" true
    (Speaker.best a (p "10.2.0.0/16") <> [])

(* Same, but the restart comes after the peer's hold timer expiry:
   the session is re-initiated from both Idle ends. *)
let test_connect_retry_after_hold_expiry () =
  let sched, _, a, b, proc_a, _, peer_ab, peer_ba = two_routers () in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Speaker.start a;
         Speaker.start b));
  ignore (Sched.run ~until:(Time.of_sec 5.0) sched);
  ignore (Sched.schedule_at sched (Time.of_sec 6.0) (fun () -> Process.kill proc_a));
  ignore (Sched.run ~until:(Time.of_sec 20.0) sched);
  check Alcotest.bool "b dropped the session first" true
    (Speaker.peer_state b peer_ba <> Speaker.Established);
  check Alcotest.bool "b retracted a's prefix" true
    (Speaker.best b (p "10.1.0.0/16") = []);
  ignore
    (Sched.schedule_at sched (Time.of_sec 21.0) (fun () -> Process.restart proc_a));
  ignore (Sched.run ~until:(Time.of_sec 45.0) sched);
  check Alcotest.bool "a re-established" true
    (Speaker.peer_state a peer_ab = Speaker.Established);
  check Alcotest.bool "b re-learned a's prefix" true
    (Speaker.best b (p "10.1.0.0/16") <> [])

let test_session_reset_self_heals () =
  let sched, _, a, b, _, _, peer_ab, peer_ba = two_routers () in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Speaker.start a;
         Speaker.start b));
  ignore (Sched.run ~until:(Time.of_sec 5.0) sched);
  ignore
    (Sched.schedule_at sched (Time.of_sec 6.0) (fun () ->
         Speaker.reset_session a peer_ab));
  ignore (Sched.run ~until:(Time.of_sec 7.0) sched);
  check Alcotest.bool "b saw the Cease promptly" true
    (Speaker.peer_state b peer_ba = Speaker.Idle);
  ignore (Sched.run ~until:(Time.of_sec 20.0) sched);
  check Alcotest.bool "session re-established by ConnectRetry" true
    (Speaker.peer_state a peer_ab = Speaker.Established
    && Speaker.peer_state b peer_ba = Speaker.Established);
  check Alcotest.bool "routes back" true (Speaker.best b (p "10.1.0.0/16") <> [])

let test_graceful_shutdown () =
  let sched, _, a, b, _, _, _, peer_ba = two_routers () in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Speaker.start a;
         Speaker.start b));
  ignore (Sched.run ~until:(Time.of_sec 5.0) sched);
  ignore (Sched.schedule_at sched (Time.of_sec 6.0) (fun () -> Speaker.shutdown a));
  ignore (Sched.run ~until:(Time.of_sec 8.0) sched);
  (* NOTIFICATION tears the session down promptly, no hold wait. *)
  check Alcotest.bool "peer session down quickly" true
    (Speaker.peer_state b peer_ba = Speaker.Idle);
  check Alcotest.bool "routes gone" true (Speaker.best b (p "10.1.0.0/16") = [])

let test_wrong_asn_rejected () =
  let sched = Sched.create () in
  let chan = Channel.create sched () in
  let ep_a, ep_b = Channel.endpoints chan in
  let a =
    Speaker.create
      (Process.create sched)
      (Speaker.default_config ~asn:65001 ~router_id:(ip "1.1.1.1"))
  in
  let b =
    Speaker.create
      (Process.create sched)
      (Speaker.default_config ~asn:65002 ~router_id:(ip "2.2.2.2"))
  in
  (* A expects 65009 but B is 65002. *)
  let peer_ab = Speaker.add_peer a ~remote_asn:65009 ep_a in
  ignore (Speaker.add_peer b ~remote_asn:65001 ep_b);
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Speaker.start a;
         Speaker.start b));
  ignore (Sched.run ~until:(Time.of_sec 5.0) sched);
  check Alcotest.bool "session rejected" true
    (Speaker.peer_state a peer_ab <> Speaker.Established)

let test_as_path_loop_prevention () =
  (* Triangle a-b-c with one prefix originated at a: c must not accept
     a route whose path already contains its ASN (and no routing loop
     can form). Check b's route to a's prefix stays 1 hop. *)
  let sched = Sched.create () in
  let mk name asn networks =
    Speaker.create
      (Process.create sched)
      {
        (Speaker.default_config ~asn ~router_id:(ip name)) with
        Speaker.networks;
      }
  in
  let a = mk "1.1.1.1" 65001 [ p "10.1.0.0/16" ] in
  let b = mk "2.2.2.2" 65002 [] in
  let c = mk "3.3.3.3" 65003 [] in
  let connect x y =
    let chan = Channel.create sched () in
    let ex, ey = Channel.endpoints chan in
    ignore (Speaker.add_peer x ~remote_asn:(Speaker.asn y) ex);
    ignore (Speaker.add_peer y ~remote_asn:(Speaker.asn x) ey)
  in
  connect a b;
  connect b c;
  connect c a;
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Speaker.start a;
         Speaker.start b;
         Speaker.start c));
  ignore (Sched.run ~until:(Time.of_sec 20.0) sched);
  (match Speaker.best b (p "10.1.0.0/16") with
  | [ r ] ->
      check (Alcotest.list Alcotest.int) "direct path preferred" [ 65001 ]
        r.Rib.attrs.Msg.as_path
  | routes -> Alcotest.failf "b has %d routes" (List.length routes));
  match Speaker.best c (p "10.1.0.0/16") with
  | [ r ] ->
      check Alcotest.bool "no own asn in path" false
        (List.mem 65003 r.Rib.attrs.Msg.as_path)
  | routes -> Alcotest.failf "c has %d routes" (List.length routes)

let test_import_policy_blocks () =
  let sched, _, a, b, _, _, _, _ =
    (* reuse helper but we need policy at add_peer time, so build inline *)
    let sched = Sched.create () in
    let chan = Channel.create sched () in
    let ep_a, ep_b = Channel.endpoints chan in
    let a =
      Speaker.create
        (Process.create sched)
        {
          (Speaker.default_config ~asn:65001 ~router_id:(ip "1.1.1.1")) with
          Speaker.networks = [ p "10.1.0.0/16" ];
        }
    in
    let b =
      Speaker.create
        (Process.create sched)
        (Speaker.default_config ~asn:65002 ~router_id:(ip "2.2.2.2"))
    in
    let import =
      Policy.make
        [ { Policy.match_ = Policy.Exact (p "10.1.0.0/16"); action = Policy.Reject } ]
    in
    let pa = Speaker.add_peer a ~remote_asn:65002 ep_a in
    let pb = Speaker.add_peer ~import b ~remote_asn:65001 ep_b in
    (sched, chan, a, b, (), (), pa, pb)
  in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Speaker.start a;
         Speaker.start b));
  ignore (Sched.run ~until:(Time.of_sec 5.0) sched);
  check Alcotest.bool "import filtered" true (Speaker.best b (p "10.1.0.0/16") = []);
  check Alcotest.int "filtered prefix gets no id" (-1)
    (Rib.find_id (Speaker.rib b) (p "10.1.0.0/16"))

let test_linear_convergence_many_prefixes () =
  (* r0 - r1 - r2 - r3, r0 originates 20 prefixes; all must reach r3
     with path length 3. *)
  let sched = Sched.create () in
  let networks = List.init 20 (fun i -> Prefix.make (Ipv4.of_octets 20 i 0 0) 16) in
  let mk name asn networks =
    Speaker.create
      (Process.create sched)
      { (Speaker.default_config ~asn ~router_id:(ip name)) with Speaker.networks }
  in
  let r0 = mk "1.0.0.1" 65000 networks in
  let r1 = mk "1.0.0.2" 65001 [] in
  let r2 = mk "1.0.0.3" 65002 [] in
  let r3 = mk "1.0.0.4" 65003 [] in
  let connect x y =
    let chan = Channel.create sched () in
    let ex, ey = Channel.endpoints chan in
    ignore (Speaker.add_peer x ~remote_asn:(Speaker.asn y) ex);
    ignore (Speaker.add_peer y ~remote_asn:(Speaker.asn x) ey)
  in
  connect r0 r1;
  connect r1 r2;
  connect r2 r3;
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         List.iter Speaker.start [ r0; r1; r2; r3 ]));
  ignore (Sched.run ~until:(Time.of_sec 30.0) sched);
  check Alcotest.int "r3 learned all" 20 (List.length (Speaker.routes r3));
  List.iter
    (fun pfx ->
      match Speaker.best r3 pfx with
      | [ r ] ->
          check (Alcotest.list Alcotest.int) "full path" [ 65002; 65001; 65000 ]
            r.Rib.attrs.Msg.as_path
      | routes -> Alcotest.failf "r3: %d routes for a prefix" (List.length routes))
    networks

let test_mrai_batches_updates () =
  (* With MRAI enabled, r0's 20 prefixes should reach the peer in far
     fewer UPDATE messages than without batching... they share
     attributes, so they batch into few messages either way; instead
     check that updates still converge with a nonzero MRAI. *)
  let config c = { c with Speaker.mrai = Time.of_ms 200 } in
  let sched, _, a, b, _, _, _, _ = two_routers ~config_a:config ~config_b:config () in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Speaker.start a;
         Speaker.start b));
  ignore (Sched.run ~until:(Time.of_sec 10.0) sched);
  check Alcotest.bool "converged with MRAI" true
    (Speaker.best b (p "10.1.0.0/16") <> [])

(* --- packed UPDATE codec --------------------------------------------------- *)

let decode_packed (msgs : Msg.packed list) =
  (* Returns (withdrawn in order, nlri in order, attrs of each reach msg). *)
  List.fold_left
    (fun (w, n, a) (m : Msg.packed) ->
      if Bytes.length m.Msg.bytes > Msg.max_message_size then
        Alcotest.failf "packed message exceeds %d bytes" Msg.max_message_size;
      match Msg.decode m.Msg.bytes with
      | Ok (Msg.Update u) ->
          let w' = u.Msg.withdrawn in
          let n', a' =
            match u.Msg.reach with
            | None -> ([], [])
            | Some (attrs, nlri) -> (nlri, [ attrs ])
          in
          if List.length w' <> m.Msg.withdrawn then
            Alcotest.fail "withdrawn count mismatch";
          if List.length n' <> m.Msg.announced then
            Alcotest.fail "announced count mismatch";
          (w @ w', n @ n', a @ a')
      | Ok _ -> Alcotest.fail "packed bytes decoded to a non-UPDATE"
      | Error e -> Alcotest.failf "packed bytes failed to decode: %s" e)
    ([], [], []) msgs

let prefixes_equal = List.equal Prefix.equal

let prop_packer_roundtrip =
  qtest ~count:300 "packer: decode partitions inputs, order preserved"
    QCheck2.Gen.(
      let* withdrawn = list_size (int_range 0 60) gen_prefix in
      let* reach =
        option (pair gen_attrs (list_size (int_range 1 60) gen_prefix))
      in
      return (withdrawn, reach))
    (fun (withdrawn, reach) ->
      let packer = Msg.Packer.create () in
      let msgs = Msg.Packer.pack packer ~withdrawn ?reach () in
      let w, n, attrs_seen = decode_packed msgs in
      prefixes_equal w withdrawn
      && prefixes_equal n (match reach with None -> [] | Some (_, l) -> l)
      && List.for_all
           (fun a ->
             match reach with
             | Some (attrs, _) -> Msg.attrs_equal a attrs
             | None -> false)
           attrs_seen)

let test_packer_split_over_4096 () =
  (* 2000 /24 NLRI at 4 bytes each cannot fit one 4096-byte UPDATE:
     the packer must split, preserving count, order and attributes. *)
  let nlri =
    List.init 2000 (fun i ->
        Prefix.make (Ipv4.of_octets 10 (i / 256) (i mod 256) 0) 24)
  in
  let attrs =
    {
      Msg.origin = Msg.Igp;
      as_path = [ 65001; 65002; 65003; 65004 ];
      next_hop = ip "10.0.0.1";
      med = None;
      local_pref = None;
      communities = [];
    }
  in
  let packer = Msg.Packer.create () in
  let msgs = Msg.Packer.pack packer ~reach:(attrs, nlri) () in
  check Alcotest.bool "split into several messages" true (List.length msgs >= 2);
  let _, n, attrs_seen = decode_packed msgs in
  check Alcotest.bool "nlri order preserved" true (prefixes_equal n nlri);
  check Alcotest.bool "attrs on every message" true
    (List.length attrs_seen = List.length msgs
    && List.for_all (fun a -> Msg.attrs_equal a attrs) attrs_seen);
  (* Same packer, fresh call: the arena is reusable. *)
  let again = Msg.Packer.pack packer ~withdrawn:(List.filteri (fun i _ -> i < 5) nlri) () in
  let w, _, _ = decode_packed again in
  check Alcotest.int "arena reuse: withdraw-only pack" 5 (List.length w)

let test_packer_empty () =
  let packer = Msg.Packer.create () in
  check Alcotest.int "no input, no messages" 0
    (List.length (Msg.Packer.pack packer ()))

(* --- incremental decision process vs reference oracle ---------------------- *)

(* Operations on a RIB over a pool of prefixes. Peers 0-9 first show up
   whenever the sequence first names them, often after many prefixes
   already have ids, and the pool of up to 40 prefixes grows the id
   arrays past their initial capacity. *)
type rib_op =
  | Set_in of int * int * Ipv4.t * Msg.attrs  (* prefix index, peer *)
  | Reannounce of int * int
      (* the peer's route again, with an equal copy of its attributes *)
  | Withdraw_in of int * int
  | Drop_peer of int
  | Add_local of int * Msg.attrs
  | Remove_local of int

(* Half the draws come from a small attribute space, so that decision
   steps tie often and the MED and BGP-id steps decide; the other half
   from the whole of [gen_attrs], with random BGP ids (high-bit ones
   included, which the unsigned id comparison must order). *)
let gen_tie_attrs =
  let open QCheck2.Gen in
  let* origin = oneofl [ Msg.Igp; Msg.Egp; Msg.Incomplete ] in
  let* as_path = list_size (int_range 0 3) (int_range 1 3) in
  let* med = option (int_range 0 2) in
  let* local_pref = option (oneofl [ 100; 200 ]) in
  return
    {
      Msg.origin;
      as_path;
      next_hop = ip "10.0.0.1";
      med;
      local_pref;
      communities = [];
    }

let gen_rib_ops =
  let open QCheck2.Gen in
  let* pool = list_size (int_range 1 40) gen_prefix in
  let pool = Array.of_list (List.sort_uniq Prefix.compare pool) in
  let* multipath = bool in
  let rib_attrs = oneof [ gen_tie_attrs; gen_attrs ] in
  let op =
    let* i = int_bound (Array.length pool - 1) in
    let* peer = int_range 0 9 in
    frequency
      [
        ( 6,
          let* id =
            oneof
              [
                oneofl [ ip "1.1.1.1"; ip "2.2.2.2"; ip "3.3.3.3" ];
                map Ipv4.of_int32 int32;
              ]
          in
          map (fun a -> Set_in (i, peer, id, a)) rib_attrs );
        (2, return (Reannounce (i, peer)));
        (3, return (Withdraw_in (i, peer)));
        (1, return (Drop_peer peer));
        (1, map (fun a -> Add_local (i, a)) rib_attrs);
        (1, return (Remove_local i));
      ]
  in
  let* ops = list_size (int_range 1 150) op in
  return (pool, multipath, ops)

let route_sig (routes : Rib.route list) =
  List.map (fun (r : Rib.route) -> (r.Rib.peer, r.Rib.attrs)) routes
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let sigs_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (p1, a1) (p2, a2) -> p1 = p2 && Msg.attrs_equal a1 a2)
       a b

(* After every operation and its refreshes: each prefix's Loc-RIB
   entry, from the incremental decision, equals the oracle's, the
   Loc-RIB size counts the non-empty best sets, and [drop_peer_ids]
   returns exactly the prefixes a plain model says the peer held, in
   prefix order. The attribute table holds exactly the records that
   Adj-RIB-In slots and Loc-RIB routes hold, each counting one
   reference per holder. *)
let prop_decide_matches_reference =
  qtest ~count:500 "rib: incremental decide == reference decision process"
    gen_rib_ops (fun (pool, multipath, ops) ->
      let intern = Attr_intern.create () in
      let rib = Rib.create ~intern () in
      let held = Hashtbl.create 64 in
      let refresh p = ignore (Rib.refresh_id ~multipath rib (Rib.id rib p)) in
      let consistent () =
        Array.for_all
          (fun p ->
            sigs_equal
              (route_sig (Rib.best rib p))
              (route_sig
                 (Horse_test_support.decide_reference ~multipath rib p)))
          pool
        && Rib.loc_rib_size rib
           = Array.fold_left
               (fun n p -> if Rib.best rib p = [] then n else n + 1)
               0 pool
      in
      let refcounts_hold () =
        let holders = Hashtbl.create 64 in
        let hold (r : Rib.route) =
          let i = r.Rib.iattrs in
          let n =
            match Hashtbl.find_opt holders i.Attr_intern.uid with
            | Some (n, _) -> n
            | None -> 0
          in
          Hashtbl.replace holders i.Attr_intern.uid (n + 1, i)
        in
        Array.iter
          (fun p ->
            List.iter hold (Rib.candidates rib p);
            List.iter hold (Rib.best rib p))
          pool;
        Attr_intern.size intern = Hashtbl.length holders
        && Hashtbl.fold
             (fun _ (n, (i : Attr_intern.interned)) ok ->
               ok && i.Attr_intern.refs = n)
             holders true
      in
      List.for_all
        (fun op ->
          let dropped_ok =
            match op with
            | Set_in (i, peer, id, a) ->
                Rib.set_in_id rib ~peer ~peer_bgp_id:id ~at:Time.zero
                  (Rib.id rib pool.(i)) a;
                Hashtbl.replace held (peer, pool.(i)) (id, a);
                refresh pool.(i);
                true
            | Reannounce (i, peer) ->
                (match Hashtbl.find_opt held (peer, pool.(i)) with
                | Some (id, a) ->
                    Rib.set_in_id rib ~peer ~peer_bgp_id:id ~at:Time.zero
                      (Rib.id rib pool.(i))
                      { a with Msg.as_path = List.map Fun.id a.Msg.as_path };
                    refresh pool.(i)
                | None -> ());
                true
            | Withdraw_in (i, peer) ->
                Rib.withdraw_in_id rib ~peer (Rib.id rib pool.(i));
                Hashtbl.remove held (peer, pool.(i));
                refresh pool.(i);
                true
            | Add_local (i, a) ->
                Rib.add_local rib ~at:Time.zero pool.(i) a;
                Hashtbl.replace held (Rib.local_peer, pool.(i)) (Ipv4.any, a);
                refresh pool.(i);
                true
            | Remove_local i ->
                Rib.withdraw_in_id rib ~peer:Rib.local_peer (Rib.id rib pool.(i));
                Hashtbl.remove held (Rib.local_peer, pool.(i));
                refresh pool.(i);
                true
            | Drop_peer peer ->
                let expected =
                  Array.to_list pool
                  |> List.filter (fun p -> Hashtbl.mem held (peer, p))
                in
                List.iter (fun p -> Hashtbl.remove held (peer, p)) expected;
                let dropped =
                  List.map (Rib.prefix_of_id rib) (Rib.drop_peer_ids rib ~peer)
                in
                List.iter refresh dropped;
                List.equal Prefix.equal expected dropped
          in
          dropped_ok && consistent () && refcounts_hold ())
        ops)

let test_attr_intern_dedup () =
  let tbl = Attr_intern.create () in
  let a1 = attrs ~path:[ 1; 2; 3 ] "10.0.0.1" in
  let a2 = attrs ~path:[ 1; 2; 3 ] "10.0.0.1" in
  let i1 = Attr_intern.intern tbl a1 in
  let i2 = Attr_intern.intern tbl a2 in
  check Alcotest.bool "same uid for equal attrs" true (Attr_intern.equal i1 i2);
  check Alcotest.bool "physically shared" true
    (i1.Attr_intern.attrs == i2.Attr_intern.attrs);
  check Alcotest.int "path length cached" 3 i1.Attr_intern.path_len;
  check Alcotest.int "one record" 1 (Attr_intern.size tbl);
  check Alcotest.int "one hit" 1 (Attr_intern.hits tbl);
  let i3 = Attr_intern.intern tbl (attrs ~path:[ 9 ] "10.0.0.2") in
  check Alcotest.bool "distinct attrs distinct uid" false
    (Attr_intern.equal i1 i3);
  check Alcotest.int "two records" 2 (Attr_intern.size tbl);
  (* Enough records to grow the table several times: uids follow first
     sight, and every record is found again afterwards. *)
  let many = List.init 1000 (fun i -> attrs ~path:[ i; i / 7 ] "10.0.0.3") in
  let first = List.map (Attr_intern.intern tbl) many in
  List.iteri
    (fun i (h : Attr_intern.interned) ->
      check Alcotest.int "uid in order of first sight" (i + 2) h.Attr_intern.uid)
    first;
  List.iter2
    (fun a h ->
      check Alcotest.bool "found again after growth" true
        (Attr_intern.intern tbl a == h))
    many first;
  check Alcotest.int "1002 records" 1002 (Attr_intern.size tbl);
  check Alcotest.int "1001 hits" 1001 (Attr_intern.hits tbl)

(* A record lives while it has holders: the last release unlinks it
   and reports it, and an equal record inserted later is a new record
   under a new uid. *)
let test_attr_intern_lifetime () =
  let tbl = Attr_intern.create () in
  let freed = ref [] in
  Attr_intern.set_on_free tbl (fun i -> freed := i.Attr_intern.uid :: !freed);
  (* Enough records to share buckets, so unlinking walks chains. *)
  let all =
    List.init 300 (fun i -> Attr_intern.intern tbl (attrs ~path:[ i ] "10.0.0.1"))
  in
  List.iter Attr_intern.retain all;
  let i0 = List.hd all in
  Attr_intern.retain i0;
  Attr_intern.release tbl i0;
  check Alcotest.int "still held once" 1 i0.Attr_intern.refs;
  check (Alcotest.list Alcotest.int) "nothing freed yet" [] !freed;
  List.iteri (fun k i -> if k mod 2 = 0 then Attr_intern.release tbl i) all;
  check Alcotest.int "half left" 150 (Attr_intern.size tbl);
  check Alcotest.int "freed in release order" 150 (List.length !freed);
  check Alcotest.int "last freed" 298 (List.hd !freed);
  List.iteri
    (fun k i ->
      let again = Attr_intern.intern tbl i.Attr_intern.attrs in
      if k mod 2 = 0 then
        check Alcotest.bool "a freed record comes back under a new uid" true
          (again != i && again.Attr_intern.uid >= 300)
      else check Alcotest.bool "a held record is found" true (again == i))
    all;
  check Alcotest.int "re-inserted" 300 (Attr_intern.size tbl);
  (* [i0] was freed; its attributes now name a record nobody holds. *)
  let unheld = Attr_intern.intern tbl i0.Attr_intern.attrs in
  Alcotest.check_raises "release without a holder"
    (Invalid_argument "Attr_intern.release: record not retained") (fun () ->
      Attr_intern.release tbl unheld)

(* --- update groups + ring geometry oracle ------------------------------------ *)

let test_update_groups_and_established_count () =
  let sched = Sched.create () in
  let hub =
    Speaker.create
      (Process.create sched)
      {
        (Speaker.default_config ~asn:65000 ~router_id:(ip "1.0.0.1")) with
        Speaker.networks = [ p "10.0.0.0/16" ];
      }
  in
  let spokes =
    List.init 3 (fun i ->
        Speaker.create
          (Process.create sched)
          (Speaker.default_config ~asn:(65001 + i)
             ~router_id:(Ipv4.of_octets 2 0 0 (i + 1))))
  in
  (* Two structurally equal (but physically distinct) prepend policies
     and one accept-all: two update groups. *)
  let prepender () =
    Policy.make
      [ { Policy.match_ = Policy.Any;
          action = Policy.Accept_with [ Policy.Prepend (65000, 2) ] } ]
  in
  List.iteri
    (fun i spoke ->
      let chan = Channel.create sched () in
      let eh, es = Channel.endpoints chan in
      let export = if i < 2 then prepender () else Policy.accept_all in
      ignore (Speaker.add_peer ~export hub ~remote_asn:(Speaker.asn spoke) eh);
      ignore (Speaker.add_peer spoke ~remote_asn:65000 es))
    spokes;
  check Alcotest.int "two update groups" 2 (Speaker.update_group_count hub);
  check Alcotest.int "none established yet" 0 (Speaker.established_count hub);
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Speaker.start hub;
         List.iter Speaker.start spokes));
  ignore (Sched.run ~until:(Time.of_sec 10.0) sched);
  check Alcotest.int "all three established" 3 (Speaker.established_count hub);
  List.iter
    (fun spoke ->
      match Speaker.best spoke (p "10.0.0.0/16") with
      | [ r ] ->
          let expected =
            if Speaker.asn spoke < 65003 then [ 65000; 65000; 65000 ]
            else [ 65000 ]
          in
          check (Alcotest.list Alcotest.int) "per-group export policy applied"
            expected r.Rib.attrs.Msg.as_path
      | routes -> Alcotest.failf "spoke has %d routes" (List.length routes))
    spokes;
  ignore
    (Sched.schedule_at sched (Time.of_sec 11.0) (fun () -> Speaker.shutdown hub));
  ignore (Sched.run ~until:(Time.of_sec 12.0) sched);
  check Alcotest.int "counter back to zero" 0 (Speaker.established_count hub)

(* A 6-router ring where every router originates distinct prefixes:
   multipath ties (two ways around for the antipode), split horizon
   and the eBGP export rewrite are all exercised, with mid-run churn so
   deltas (not just initial transfers) flow. Ring geometry is the
   oracle: every route's AS path is as long as the ring distance to the
   prefix's origin, and the antipode is reached both ways round. *)
let test_ring_geometry () =
  let n = 6 and per = 8 in
  let sched = Sched.create () in
  let networks i =
    List.init per (fun j -> Prefix.make (Ipv4.of_octets 10 i j 0) 24)
  in
  let late = p "99.9.0.0/16" in
  let origin = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    List.iter (fun pfx -> Hashtbl.replace origin pfx i) (networks i)
  done;
  Hashtbl.replace origin late 1;
  let speakers =
    Array.init n (fun i ->
        Speaker.create
          (Process.create sched)
          {
            (Speaker.default_config ~asn:(65000 + i)
               ~router_id:(Ipv4.of_octets 1 0 0 (i + 1)))
            with
            Speaker.networks = networks i;
          })
  in
  for i = 0 to n - 1 do
    let x = speakers.(i) and y = speakers.((i + 1) mod n) in
    let chan = Channel.create sched () in
    let ex, ey = Channel.endpoints chan in
    ignore (Speaker.add_peer x ~remote_asn:(Speaker.asn y) ex);
    ignore (Speaker.add_peer y ~remote_asn:(Speaker.asn x) ey)
  done;
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Array.iter Speaker.start speakers));
  ignore
    (Sched.schedule_at sched (Time.of_sec 20.0) (fun () ->
         Speaker.withdraw_network speakers.(0) (List.hd (networks 0));
         Speaker.announce speakers.(1) late));
  ignore (Sched.run ~until:(Time.of_sec 60.0) sched);
  Array.iteri
    (fun i speaker ->
      let table = Speaker.routes speaker in
      (* Everyone holds every prefix: 6*8 - 1 withdrawn + 1 late announce. *)
      check Alcotest.int "full table" 48 (List.length table);
      List.iter
        (fun (pfx, routes) ->
          let d = abs (i - Hashtbl.find origin pfx) in
          let d = min d (n - d) in
          let name = Printf.sprintf "r%d %s" i (Prefix.to_string pfx) in
          check Alcotest.int (name ^ " routes") (if d = n / 2 then 2 else 1)
            (List.length routes);
          List.iter
            (fun (r : Rib.route) ->
              check Alcotest.int (name ^ " as-path length") d
                (List.length r.Rib.attrs.Msg.as_path))
            routes)
        table)
    speakers

let () =
  Alcotest.run "horse_bgp"
    [
      ( "codec",
        [
          Alcotest.test_case "header layout" `Quick test_msg_header_layout;
          Alcotest.test_case "bad input rejected" `Quick test_msg_bad_input;
          Alcotest.test_case "update wire format" `Quick test_update_wire_format;
          prop_msg_roundtrip;
          prop_msg_decode_total;
          prop_msg_decode_total_mutated;
          prop_msg_decode_matches_reference;
          prop_packer_roundtrip;
          Alcotest.test_case "packer splits at 4096" `Quick
            test_packer_split_over_4096;
          Alcotest.test_case "packer empty input" `Quick test_packer_empty;
        ] );
      ( "rib",
        [
          Alcotest.test_case "local-pref" `Quick test_decision_local_pref;
          Alcotest.test_case "as-path length" `Quick test_decision_as_path_len;
          Alcotest.test_case "origin and med" `Quick test_decision_origin_and_med;
          Alcotest.test_case "multipath" `Quick test_decision_multipath;
          Alcotest.test_case "withdraw and drop peer" `Quick
            test_rib_withdraw_and_drop_peer;
          Alcotest.test_case "refresh idempotent" `Quick test_rib_refresh_unchanged;
          prop_decide_matches_reference;
          Alcotest.test_case "attr interning" `Quick test_attr_intern_dedup;
          Alcotest.test_case "attr lifetimes" `Quick test_attr_intern_lifetime;
        ] );
      ( "policy",
        [
          Alcotest.test_case "rules" `Quick test_policy;
          Alcotest.test_case "communities" `Quick test_policy_communities;
          Alcotest.test_case "communities propagate" `Quick
            test_communities_propagate;
        ] );
      ( "speaker",
        [
          Alcotest.test_case "establishment and exchange (fig1)" `Quick
            test_session_establishment_and_exchange;
          Alcotest.test_case "runtime announce/withdraw" `Quick
            test_runtime_announce_and_withdraw;
          Alcotest.test_case "withdrawal of an unknown prefix" `Quick
            test_withdraw_unknown_prefix;
          Alcotest.test_case "attr records freed under path churn" `Quick
            test_attr_records_freed_under_churn;
          Alcotest.test_case "withdraw + equal re-announce in one UPDATE" `Quick
            test_withdraw_reannounce_one_update;
          Alcotest.test_case "hold timer on crash" `Quick
            test_hold_timer_expiry_on_kill;
          Alcotest.test_case "connect-retry heals kill/restart" `Quick
            test_connect_retry_after_restart;
          Alcotest.test_case "connect-retry after hold expiry" `Quick
            test_connect_retry_after_hold_expiry;
          Alcotest.test_case "session reset self-heals" `Quick
            test_session_reset_self_heals;
          Alcotest.test_case "graceful shutdown" `Quick test_graceful_shutdown;
          Alcotest.test_case "wrong asn rejected" `Quick test_wrong_asn_rejected;
          Alcotest.test_case "as-path loop prevention" `Quick
            test_as_path_loop_prevention;
          Alcotest.test_case "import policy" `Quick test_import_policy_blocks;
          Alcotest.test_case "linear convergence, many prefixes" `Quick
            test_linear_convergence_many_prefixes;
          Alcotest.test_case "mrai batching" `Quick test_mrai_batches_updates;
          Alcotest.test_case "update groups + established count" `Quick
            test_update_groups_and_established_count;
          Alcotest.test_case "ring loc-rib matches ring geometry" `Quick
            test_ring_geometry;
        ] );
    ]
