(* Tests for horse_openflow: match semantics, the message codec, the
   flow table, and the switch agent over an emulated channel. *)

open Horse_net
open Horse_engine
open Horse_emulation
open Horse_openflow

let check = Alcotest.check
let qtest = Horse_test_support.qtest

let ip = Ipv4.of_string_exn
let p = Prefix.of_string_exn

let key_ab =
  Flow_key.make ~src:(ip "10.0.0.2") ~dst:(ip "10.1.0.2") ~src_port:1111
    ~dst_port:2222 ()

let fields ?(in_port = 1) key = Ofmatch.fields_of_key ~in_port key

(* --- Ofmatch ------------------------------------------------------------ *)

let test_match_any () =
  check Alcotest.bool "any matches" true (Ofmatch.matches Ofmatch.any (fields key_ab))

let test_match_exact_5tuple () =
  let m = Ofmatch.exact_5tuple key_ab in
  check Alcotest.bool "matches its own key" true (Ofmatch.matches m (fields key_ab));
  let other = { key_ab with Flow_key.src_port = 1112 } in
  check Alcotest.bool "different port misses" false
    (Ofmatch.matches m (fields other));
  let other = { key_ab with Flow_key.dst = ip "10.1.0.3" } in
  check Alcotest.bool "different dst misses" false
    (Ofmatch.matches m (fields other))

let test_match_prefix () =
  let m = Ofmatch.to_dst (p "10.1.0.0/16") in
  check Alcotest.bool "in prefix" true (Ofmatch.matches m (fields key_ab));
  let outside = { key_ab with Flow_key.dst = ip "10.2.0.2" } in
  check Alcotest.bool "outside prefix" false (Ofmatch.matches m (fields outside))

let test_match_in_port () =
  let m = { Ofmatch.any with Ofmatch.m_in_port = Some 3 } in
  check Alcotest.bool "right port" true
    (Ofmatch.matches m (fields ~in_port:3 key_ab));
  check Alcotest.bool "wrong port" false
    (Ofmatch.matches m (fields ~in_port:4 key_ab))

let gen_match =
  let open QCheck2.Gen in
  let opt g = option g in
  let* m_in_port = opt (int_range 1 48) in
  let* m_eth_type = opt (oneofl [ 0x0800; 0x0806 ]) in
  let* m_ip_src =
    opt (map2 (fun a l -> Prefix.make (Ipv4.of_int32 a) l) int32 (int_range 1 32))
  in
  let* m_ip_dst =
    opt (map2 (fun a l -> Prefix.make (Ipv4.of_int32 a) l) int32 (int_range 1 32))
  in
  let* m_ip_proto = opt (int_range 0 255) in
  let* m_tp_src = opt (int_range 0 65535) in
  let* m_tp_dst = opt (int_range 0 65535) in
  let* m_eth_src = opt (map (fun i -> Mac.of_index i) (int_bound 100000)) in
  let* m_eth_dst = opt (map (fun i -> Mac.of_index i) (int_bound 100000)) in
  return
    {
      Ofmatch.m_in_port;
      m_eth_src;
      m_eth_dst;
      m_eth_type;
      m_ip_src;
      m_ip_dst;
      m_ip_proto;
      m_tp_src;
      m_tp_dst;
    }

let prop_match_codec_roundtrip =
  qtest "ofmatch: 40-byte codec roundtrip" gen_match (fun m ->
      let buf = Bytes.make Ofmatch.size '\000' in
      Ofmatch.write buf 0 m;
      match Ofmatch.read buf 0 with
      | Ok m' -> Ofmatch.equal m m'
      | Error _ -> false)

let prop_match_exact_key_matches =
  let gen_key =
    let open QCheck2.Gen in
    let* src = map Ipv4.of_int32 int32 in
    let* dst = map Ipv4.of_int32 int32 in
    let* sp = int_range 0 65535 in
    let* dp = int_range 0 65535 in
    return (Flow_key.make ~src ~dst ~src_port:sp ~dst_port:dp ())
  in
  qtest "ofmatch: exact_5tuple matches exactly its key" gen_key (fun k ->
      Ofmatch.matches (Ofmatch.exact_5tuple k) (Ofmatch.fields_of_key k))

(* --- Mask / overlap semantics ------------------------------------------- *)

(* Concrete fields drawn from a small universe correlated with
   [gen_pool_match] below, so random probes actually hit rules. *)
let pool_ip =
  QCheck2.Gen.(
    map2
      (fun a b -> ip (Printf.sprintf "10.%d.%d.1" a b))
      (int_range 0 3) (int_range 0 3))

let gen_pool_fields =
  let open QCheck2.Gen in
  let* in_port = int_range 1 3 in
  let* ip_src = pool_ip in
  let* ip_dst = pool_ip in
  let* ip_proto = oneofl [ 6; 17 ] in
  let* tp_src = oneofl [ 80; 443; 1000 ] in
  let* tp_dst = oneofl [ 80; 443; 1000 ] in
  let* esrc = int_bound 3 in
  let* edst = int_bound 3 in
  return
    {
      Ofmatch.in_port;
      eth_src = Mac.of_index esrc;
      eth_dst = Mac.of_index edst;
      eth_type = 0x0800;
      ip_src;
      ip_dst;
      ip_proto;
      tp_src;
      tp_dst;
    }

let gen_pool_match =
  let open QCheck2.Gen in
  let opt g = option g in
  let prefix = map2 (fun a l -> Prefix.make a l) pool_ip (oneofl [ 8; 16; 24; 32 ]) in
  let* m_in_port = opt (int_range 1 3) in
  let* m_ip_src = opt prefix in
  let* m_ip_dst = opt prefix in
  let* m_ip_proto = opt (oneofl [ 6; 17 ]) in
  let* m_tp_src = opt (oneofl [ 80; 443; 1000 ]) in
  let* m_tp_dst = opt (oneofl [ 80; 443; 1000 ]) in
  let* m_eth_src = opt (map Mac.of_index (int_bound 3)) in
  let* m_eth_dst = opt (map Mac.of_index (int_bound 3)) in
  return
    {
      Ofmatch.m_in_port;
      m_eth_src;
      m_eth_dst;
      m_eth_type = Some 0x0800;
      m_ip_src;
      m_ip_dst;
      m_ip_proto;
      m_tp_src;
      m_tp_dst;
    }

let test_overlap_disjoint () =
  let m_tp a = { Ofmatch.any with Ofmatch.m_tp_src = Some a } in
  check Alcotest.bool "same exact value overlaps" true
    (Ofmatch.is_exact_overlap (m_tp 80) (m_tp 80));
  check Alcotest.bool "different exact values are disjoint" false
    (Ofmatch.is_exact_overlap (m_tp 80) (m_tp 81));
  check Alcotest.bool "wildcard overlaps any value" true
    (Ofmatch.is_exact_overlap (m_tp 80) Ofmatch.any);
  let m_dst q = Ofmatch.to_dst q in
  check Alcotest.bool "disjoint prefixes" false
    (Ofmatch.is_exact_overlap (m_dst (p "10.1.0.0/16")) (m_dst (p "10.2.0.0/16")));
  check Alcotest.bool "nested prefixes overlap" true
    (Ofmatch.is_exact_overlap (m_dst (p "10.1.0.0/16")) (m_dst (p "10.0.0.0/8")));
  let m_mac i = { Ofmatch.any with Ofmatch.m_eth_src = Some (Mac.of_index i) } in
  check Alcotest.bool "different macs are disjoint" false
    (Ofmatch.is_exact_overlap (m_mac 1) (m_mac 2));
  (* The pre-fix over-approximation: disjoint on one field even though
     another field agrees exactly. *)
  let a = { (m_tp 80) with Ofmatch.m_ip_proto = Some 6 } in
  let b = { (m_tp 81) with Ofmatch.m_ip_proto = Some 6 } in
  check Alcotest.bool "one disjoint field decides" false
    (Ofmatch.is_exact_overlap a b)

let prop_overlap_sound =
  qtest ~count:500 "ofmatch: both match a packet => overlap"
    QCheck2.Gen.(triple gen_pool_match gen_pool_match gen_pool_fields)
    (fun (a, b, f) ->
      (not (Ofmatch.matches a f && Ofmatch.matches b f))
      || Ofmatch.is_exact_overlap a b)

let prop_overlap_reflexive =
  qtest "ofmatch: overlap is reflexive" gen_match (fun m ->
      Ofmatch.is_exact_overlap m m)

let prop_mask_canonical_key =
  qtest ~count:500
    "ofmatch: matches m f <=> project (mask_of m) f = fields_of_match m"
    QCheck2.Gen.(pair gen_pool_match gen_pool_fields)
    (fun (m, f) ->
      let mask = Ofmatch.mask_of m in
      Ofmatch.matches m f
      = Ofmatch.fields_equal (Ofmatch.Mask.project mask f) (Ofmatch.fields_of_match m))

let prop_mask_projection_stable =
  qtest ~count:500 "ofmatch: projection under mask_of preserves the decision"
    QCheck2.Gen.(pair gen_match gen_pool_fields)
    (fun (m, f) ->
      let mask = Ofmatch.mask_of m in
      Ofmatch.matches m f = Ofmatch.matches m (Ofmatch.Mask.project mask f))

(* --- Ofmsg codec --------------------------------------------------------- *)

let gen_actions =
  QCheck2.Gen.(
    list_size (int_range 0 3)
      (oneof
         [
           map (fun p -> Action.Output p) (int_range 1 48);
           return Action.Flood;
           map (fun n -> Action.To_controller n) (int_range 0 1024);
         ]))

let gen_msg =
  let open QCheck2.Gen in
  oneof
    [
      oneofl
        [
          Ofmsg.Hello;
          Ofmsg.Echo_request;
          Ofmsg.Echo_reply;
          Ofmsg.Features_request;
          Ofmsg.Barrier_request;
          Ofmsg.Barrier_reply;
        ];
      (let* dpid = int_bound 1_000_000 in
       let* n_ports = int_range 0 64 in
       return (Ofmsg.Features_reply { dpid; n_ports }));
      (let* pst_reason = int_range 0 2 in
       let* pst_port = int_range 1 48 in
       return (Ofmsg.Port_status { Ofmsg.pst_reason; pst_port }));
      (let* in_port = int_range 0 48 in
       let* data = map Bytes.of_string (string_size (int_range 0 80)) in
       return
         (Ofmsg.Packet_in
            {
              buffer_id = 0xFFFFFFFF;
              total_len = Bytes.length data;
              in_port;
              reason = 0;
              data;
            }));
      (let* po_in_port = int_range 0 48 in
       let* po_actions = gen_actions in
       let* po_data = map Bytes.of_string (string_size (int_range 0 80)) in
       return (Ofmsg.Packet_out { po_in_port; po_actions; po_data }));
      (let* match_ = gen_match in
       let* command = oneofl [ Ofmsg.Add; Ofmsg.Modify; Ofmsg.Delete ] in
       let* priority = int_range 0 65535 in
       let* idle = int_range 0 3600 in
       let* hard = int_range 0 3600 in
       let* cookie = int_bound 1_000_000 in
       let* actions = gen_actions in
       return
         (Ofmsg.Flow_mod
            {
              Ofmsg.match_;
              cookie;
              command;
              idle_timeout_s = idle;
              hard_timeout_s = hard;
              priority;
              actions;
            }));
      (let* m = gen_match in
       return (Ofmsg.Stats_request (Ofmsg.Flow_stats_req m)));
      (let* port = oneof [ int_range 1 48; return 0xFFFF ] in
       return (Ofmsg.Stats_request (Ofmsg.Port_stats_req port)));
      (let* entries =
         list_size (int_range 0 4)
           (let* fs_match = gen_match in
            let* fs_priority = int_range 0 65535 in
            let* fs_cookie = int_bound 1_000_000 in
            let* fs_packets = int_bound 1_000_000_000 in
            let* fs_bytes = int_bound 1_000_000_000 in
            let* fs_duration_s = int_bound 100000 in
            let* fs_actions = gen_actions in
            return
              {
                Ofmsg.fs_match;
                fs_priority;
                fs_cookie;
                fs_packets;
                fs_bytes;
                fs_duration_s;
                fs_actions;
              })
       in
       return (Ofmsg.Stats_reply (Ofmsg.Flow_stats_rep entries)));
      (let* entries =
         list_size (int_range 0 6)
           (let* ps_port = int_range 1 48 in
            let* a = int_bound 1_000_000 in
            let* b = int_bound 1_000_000 in
            let* c = int_bound 1_000_000_000 in
            let* d = int_bound 1_000_000_000 in
            return
              {
                Ofmsg.ps_port;
                ps_rx_packets = a;
                ps_tx_packets = b;
                ps_rx_bytes = c;
                ps_tx_bytes = d;
              })
       in
       return (Ofmsg.Stats_reply (Ofmsg.Port_stats_rep entries)));
    ]

let prop_ofmsg_roundtrip =
  qtest ~count:500 "ofmsg: encode/decode roundtrip"
    (QCheck2.Gen.pair gen_msg (QCheck2.Gen.int_bound 0xFFFF))
    (fun (m, xid) ->
      match Ofmsg.decode (Ofmsg.encode ~xid m) with
      | Ok (m', xid') -> Ofmsg.equal m m' && xid = xid'
      | Error _ -> false)

let prop_ofmsg_decode_total =
  qtest ~count:500 "ofmsg: decoder never raises on arbitrary bytes"
    QCheck2.Gen.(map Bytes.of_string (string_size (int_range 0 120)))
    (fun junk -> match Ofmsg.decode junk with Ok _ | Error _ -> true)

let prop_ofmsg_decode_total_mutated =
  qtest ~count:300 "ofmsg: decoder never raises on mutated messages"
    (QCheck2.Gen.triple gen_msg (QCheck2.Gen.int_bound 300) (QCheck2.Gen.int_bound 255))
    (fun (m, pos, v) ->
      let buf = Ofmsg.encode m in
      if Bytes.length buf > 0 then
        Bytes.set_uint8 buf (pos mod Bytes.length buf) v;
      match Ofmsg.decode buf with Ok _ | Error _ -> true)

let test_ofmsg_header () =
  let buf = Ofmsg.encode ~xid:0xABCD Ofmsg.Hello in
  check Alcotest.int "version 1.0" 0x01 (Bytes.get_uint8 buf 0);
  check Alcotest.int "type hello" 0 (Bytes.get_uint8 buf 1);
  check Alcotest.int "length" 8 (Bytes.get_uint16_be buf 2);
  check Alcotest.int "xid" 0xABCD (Int32.to_int (Bytes.get_int32_be buf 4))

(* --- Flow table ------------------------------------------------------------ *)

let flow_mod ?(command = Ofmsg.Add) ?(priority = 10) ?(idle = 0) ?(hard = 0)
    ?(cookie = 0) match_ actions =
  {
    Ofmsg.match_;
    cookie;
    command;
    idle_timeout_s = idle;
    hard_timeout_s = hard;
    priority;
    actions;
  }

let test_table_priority () =
  let t = Flow_table.create () in
  let now = Time.zero in
  Flow_table.apply_flow_mod t ~now
    (flow_mod ~priority:1 Ofmatch.any [ Action.Output 1 ]);
  Flow_table.apply_flow_mod t ~now
    (flow_mod ~priority:100 (Ofmatch.exact_5tuple key_ab) [ Action.Output 2 ]);
  (match Flow_table.lookup t (fields key_ab) with
  | Some e -> check Alcotest.int "high priority wins" 100 e.Flow_table.priority
  | None -> Alcotest.fail "no match");
  let other = { key_ab with Flow_key.dst_port = 9 } in
  match Flow_table.lookup t (fields other) with
  | Some e -> check Alcotest.int "fallback to low priority" 1 e.Flow_table.priority
  | None -> Alcotest.fail "wildcard should match"

let test_table_add_replaces () =
  let t = Flow_table.create () in
  let now = Time.zero in
  Flow_table.apply_flow_mod t ~now (flow_mod Ofmatch.any [ Action.Output 1 ]);
  Flow_table.apply_flow_mod t ~now (flow_mod Ofmatch.any [ Action.Output 2 ]);
  check Alcotest.int "single entry" 1 (Flow_table.size t);
  match Flow_table.lookup t (fields key_ab) with
  | Some e ->
      check Alcotest.bool "latest actions" true
        (List.equal Action.equal [ Action.Output 2 ] e.Flow_table.actions)
  | None -> Alcotest.fail "missing"

let test_table_modify_and_delete () =
  let t = Flow_table.create () in
  let now = Time.zero in
  let m = Ofmatch.exact_5tuple key_ab in
  Flow_table.apply_flow_mod t ~now (flow_mod m [ Action.Output 1 ]);
  Flow_table.apply_flow_mod t ~now
    (flow_mod ~command:Ofmsg.Modify m [ Action.Output 7 ]);
  (match Flow_table.lookup t (fields key_ab) with
  | Some e ->
      check Alcotest.bool "modified" true
        (List.equal Action.equal [ Action.Output 7 ] e.Flow_table.actions)
  | None -> Alcotest.fail "missing");
  (* Loose delete: wildcard removes everything overlapping. *)
  Flow_table.apply_flow_mod t ~now
    (flow_mod ~command:Ofmsg.Delete Ofmatch.any []);
  check Alcotest.int "cleared" 0 (Flow_table.size t)

let test_table_timeouts () =
  let t = Flow_table.create () in
  Flow_table.apply_flow_mod t ~now:Time.zero
    (flow_mod ~hard:10 Ofmatch.any [ Action.Output 1 ]);
  Flow_table.apply_flow_mod t ~now:Time.zero
    (flow_mod ~priority:20 ~idle:5 (Ofmatch.exact_5tuple key_ab)
       [ Action.Output 2 ]);
  check Alcotest.int "both live at 4s" 0
    (List.length (Flow_table.expire t ~now:(Time.of_sec 4.0)));
  (* Keep the idle entry alive by accounting traffic at t=4. *)
  (match Flow_table.lookup t (fields key_ab) with
  | Some e -> Flow_table.account e ~now:(Time.of_sec 4.0) ~packets:1 ~bytes:100
  | None -> Alcotest.fail "entry missing");
  check Alcotest.int "still live at 8s" 0
    (List.length (Flow_table.expire t ~now:(Time.of_sec 8.0)));
  (* At 10s: hard timeout fires for the first, idle (9-4=5) for the
     second. *)
  let gone = Flow_table.expire t ~now:(Time.of_sec 10.0) in
  check Alcotest.int "both expired" 2 (List.length gone);
  check Alcotest.int "table empty" 0 (Flow_table.size t)

let test_table_equal_priority_fifo () =
  let t = Flow_table.create () in
  let now = Time.zero in
  Flow_table.apply_flow_mod t ~now
    (flow_mod ~cookie:1 (Ofmatch.to_dst (p "10.1.0.0/16")) [ Action.Output 1 ]);
  Flow_table.apply_flow_mod t ~now
    (flow_mod ~cookie:2 (Ofmatch.to_dst (p "10.0.0.0/8")) [ Action.Output 2 ]);
  match Flow_table.lookup t (fields key_ab) with
  | Some e -> check Alcotest.int "older entry wins ties" 1 e.Flow_table.cookie
  | None -> Alcotest.fail "no match"

(* --- Lookup after table changes ------------------------------------------ *)

let test_add_new_rule_wins () =
  let t = Flow_table.create () in
  let now = Time.zero in
  Flow_table.apply_flow_mod t ~now
    (flow_mod ~priority:1 ~cookie:1 (Ofmatch.to_dst (p "10.0.0.0/8"))
       [ Action.Output 1 ]);
  (match Flow_table.lookup t (fields key_ab) with
  | Some e -> check Alcotest.int "low-priority rule first" 1 e.Flow_table.cookie
  | None -> Alcotest.fail "expected hit");
  (* A higher-priority rule covering the packet takes over
     immediately. *)
  Flow_table.apply_flow_mod t ~now
    (flow_mod ~priority:9 ~cookie:2 (Ofmatch.exact_5tuple key_ab)
       [ Action.Output 2 ]);
  (match Flow_table.lookup t (fields key_ab) with
  | Some e -> check Alcotest.int "new rule wins" 2 e.Flow_table.cookie
  | None -> Alcotest.fail "expected hit");
  (* A former miss hits once an ADD covers it. *)
  let missk = { key_ab with Flow_key.dst = ip "11.2.3.4" } in
  check Alcotest.bool "miss" true (Flow_table.lookup t (fields missk) = None);
  Flow_table.apply_flow_mod t ~now
    (flow_mod ~priority:3 ~cookie:7 (Ofmatch.to_dst (p "11.0.0.0/8"))
       [ Action.Output 3 ]);
  match Flow_table.lookup t (fields missk) with
  | Some e -> check Alcotest.int "former miss now hits" 7 e.Flow_table.cookie
  | None -> Alcotest.fail "miss survived an overlapping ADD"

let test_remove_falls_back () =
  let t = Flow_table.create () in
  let now = Time.zero in
  Flow_table.apply_flow_mod t ~now
    (flow_mod ~priority:9 ~cookie:1 (Ofmatch.exact_5tuple key_ab)
       [ Action.Output 1 ]);
  Flow_table.apply_flow_mod t ~now
    (flow_mod ~priority:1 ~cookie:2
       { Ofmatch.any with Ofmatch.m_in_port = Some 1 }
       [ Action.Output 2 ]);
  (match Flow_table.lookup t (fields key_ab) with
  | Some e -> check Alcotest.int "exact rule wins" 1 e.Flow_table.cookie
  | None -> Alcotest.fail "expected hit");
  (* Loose delete on in_port=2 overlaps the exact rule (which leaves
     in_port wildcarded) but is provably disjoint from the in_port=1
     fallback — only the winner goes. *)
  Flow_table.apply_flow_mod t ~now
    (flow_mod ~command:Ofmsg.Delete
       { Ofmatch.any with Ofmatch.m_in_port = Some 2 }
       []);
  (match Flow_table.lookup t (fields key_ab) with
  | Some e -> check Alcotest.int "fallback after delete" 2 e.Flow_table.cookie
  | None -> Alcotest.fail "expected fallback hit");
  (* Expiry behaves like delete. *)
  let t2 = Flow_table.create () in
  Flow_table.apply_flow_mod t2 ~now:Time.zero
    (flow_mod ~hard:2 (Ofmatch.exact_5tuple key_ab) [ Action.Output 1 ]);
  check Alcotest.bool "hit before expiry" true
    (Flow_table.lookup t2 (fields key_ab) <> None);
  ignore (Flow_table.expire t2 ~now:(Time.of_sec 3.0));
  check Alcotest.bool "expired entry not served" true
    (Flow_table.lookup t2 (fields key_ab) = None)

let test_modify_serves_new_actions () =
  let t = Flow_table.create () in
  let now = Time.zero in
  let m = Ofmatch.exact_5tuple key_ab in
  Flow_table.apply_flow_mod t ~now (flow_mod m [ Action.Output 1 ]);
  ignore (Flow_table.lookup t (fields key_ab));
  Flow_table.apply_flow_mod t ~now
    (flow_mod ~command:Ofmsg.Modify m [ Action.Output 7 ]);
  match Flow_table.lookup t (fields key_ab) with
  | Some e ->
      check Alcotest.bool "lookup serves rewritten actions" true
        (List.equal Action.equal [ Action.Output 7 ] e.Flow_table.actions)
  | None -> Alcotest.fail "missing"

let test_o1_size_no_resort () =
  let t = Flow_table.create () in
  let now = Time.zero in
  let probe = fields key_ab in
  for i = 0 to 999 do
    let dst = Ipv4.of_octets 10 ((i lsr 8) land 0xFF) (i land 0xFF) 0 in
    Flow_table.apply_flow_mod t ~now
      (flow_mod ~priority:(i mod 7) (Ofmatch.to_dst (Prefix.make dst 24))
         [ Action.Output 1 ]);
    ignore (Flow_table.lookup t probe)
  done;
  check Alcotest.int "O(1) live count" 1000 (Flow_table.size t);
  let st = Flow_table.stats t in
  check Alcotest.int "hot path never sorts the table" 0 st.Flow_table.view_sorts;
  (* Only the sorted iteration (and the reference scan over it) pays
     for a sort. *)
  check Alcotest.int "entries sees all rules" 1000 (List.length (Flow_table.entries t));
  check Alcotest.bool "one lazy sort for the view" true (st.Flow_table.view_sorts >= 1);
  let sorts_before = st.Flow_table.view_sorts in
  ignore (Horse_test_support.lookup_reference t probe);
  check Alcotest.int "view cached across reads" sorts_before
    (Flow_table.stats t).Flow_table.view_sorts

(* Differential suite: random flow_mod / traffic / expiry
   interleavings; on every probe the tuple-space search must return
   the physically-same entry as the linear scan over the entries, and
   on every tick the deadline set must agree with a scan. *)
let gen_op =
  let open QCheck2.Gen in
  let gen_fm =
    let* match_ = gen_pool_match in
    let* command = frequency [ (6, return Ofmsg.Add); (1, return Ofmsg.Modify); (1, return Ofmsg.Delete) ] in
    let* priority = int_range 0 9 in
    let* idle = frequency [ (4, return 0); (1, int_range 1 3) ] in
    let* hard = frequency [ (4, return 0); (1, int_range 1 3) ] in
    let* cookie = int_bound 1000 in
    let* actions = gen_actions in
    return
      (`Mod
        {
          Ofmsg.match_;
          cookie;
          command;
          idle_timeout_s = idle;
          hard_timeout_s = hard;
          priority;
          actions;
        })
  in
  frequency
    [
      (3, gen_fm);
      (6, map (fun f -> `Probe f) gen_pool_fields);
      (1, return `Tick);
    ]

(* An entry's real deadline, read off its timeouts and timestamps. *)
let entry_deadline (e : Flow_table.entry) =
  let after start = Option.map (Time.add start) in
  match
    (after e.Flow_table.installed_at e.Flow_table.hard_timeout,
     after e.Flow_table.last_used e.Flow_table.idle_timeout)
  with
  | None, None -> None
  | Some d, None | None, Some d -> Some d
  | Some h, Some i -> Some (Time.min h i)

(* The deadline set against a scan of every entry: [next_deadline] is
   [None] exactly when no entry has a timeout and is never later than
   the earliest real deadline, and [expire] removes exactly the
   entries past theirs, in match order. *)
let expire_matches_scan t ~now =
  let deadlines = List.filter_map entry_deadline (Flow_table.entries t) in
  let next_ok =
    match (Flow_table.next_deadline t, deadlines) with
    | None, [] -> true
    | Some d, _ :: _ -> List.for_all (fun d' -> Time.(d <= d')) deadlines
    | None, _ :: _ | Some _, [] -> false
  in
  let due =
    List.filter
      (fun e ->
        match entry_deadline e with Some d -> Time.(d <= now) | None -> false)
      (Flow_table.entries t)
  in
  next_ok && List.equal ( == ) due (Flow_table.expire t ~now)

let run_differential ops =
  let t = Flow_table.create () in
  let now = ref Time.zero in
  List.for_all
    (fun op ->
      match op with
      | `Mod fm ->
          Flow_table.apply_flow_mod t ~now:!now fm;
          true
      | `Tick ->
          now := Time.add !now (Time.of_ms 500);
          expire_matches_scan t ~now:!now
      | `Probe f -> (
          match (Flow_table.lookup t f, Horse_test_support.lookup_reference t f) with
          | Some a, Some b ->
              (* Traffic on the hit moves its idle deadline. *)
              Flow_table.account a ~now:!now ~packets:1 ~bytes:64;
              a == b
          | None, None -> true
          | _ -> false))
    ops

let prop_differential =
  qtest ~count:150 "flow_table: hierarchy == reference (backed by TSS)"
    QCheck2.Gen.(list_size (int_range 10 80) gen_op)
    run_differential

(* --- Switch agent ----------------------------------------------------------- *)

(* A switch agent plus a raw test controller endpoint. *)
let switch_rig () =
  let sched = Sched.create () in
  let chan = Channel.create sched ~latency:(Time.of_ms 1) () in
  let sw_end, ctrl_end = Channel.endpoints chan in
  let proc = Process.create sched in
  let agent =
    Switch.create proc ~dpid:42 ~ports:[ (1, 100); (2, 200) ] sw_end
  in
  let inbox = ref [] in
  Channel.set_receiver ctrl_end (fun bytes ->
      match Ofmsg.decode bytes with
      | Ok (msg, xid) -> inbox := (msg, xid) :: !inbox
      | Error e -> Alcotest.failf "controller decode error: %s" e);
  (sched, agent, ctrl_end, inbox)

let run sched until = ignore (Sched.run ~until sched)

let test_switch_handshake () =
  let sched, _agent, ctrl_end, inbox = switch_rig () in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Channel.send ctrl_end (Ofmsg.encode Ofmsg.Hello);
         Channel.send ctrl_end (Ofmsg.encode ~xid:7 Ofmsg.Features_request)));
  run sched (Time.of_ms 100);
  let replies = List.rev !inbox in
  check Alcotest.bool "features reply with dpid" true
    (List.exists
       (fun (m, xid) ->
         match m with
         | Ofmsg.Features_reply { dpid; n_ports } ->
             dpid = 42 && n_ports = 2 && xid = 7
         | _ -> false)
       replies)

let test_switch_flow_mod_and_lookup () =
  let sched, agent, ctrl_end, _ = switch_rig () in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Channel.send ctrl_end
           (Ofmsg.encode
              (Ofmsg.Flow_mod
                 (flow_mod (Ofmatch.exact_5tuple key_ab) [ Action.Output 2 ])))));
  run sched (Time.of_ms 100);
  check Alcotest.int "flow mod received" 1 (Switch.flow_mods_received agent);
  (match Switch.lookup agent (fields key_ab) with
  | Some e ->
      check Alcotest.bool "actions" true
        (List.equal Action.equal [ Action.Output 2 ] e.Flow_table.actions)
  | None -> Alcotest.fail "installed entry not found");
  check (Alcotest.option Alcotest.int) "port->link" (Some 200)
    (Switch.link_of_port agent 2);
  check (Alcotest.option Alcotest.int) "link->port" (Some 1)
    (Switch.port_of_link agent 100);
  (* Each lookup counts itself, labelled with the dpid. *)
  ignore (Switch.lookup agent (fields key_ab));
  ignore (Switch.lookup agent (fields { key_ab with Flow_key.src_port = 1 }));
  let counter labels name =
    match
      Horse_telemetry.Registry.find_counter
        (Sched.registry sched) ~labels ("horse_openflow_" ^ name)
    with
    | Some c -> Horse_telemetry.Registry.Counter.value c
    | None -> Alcotest.failf "counter horse_openflow_%s not registered" name
  in
  check Alcotest.int "hits counted" 2
    (counter [ ("dpid", "42"); ("table", "classifier") ] "tss_hits_total");
  check Alcotest.int "miss counted" 1
    (counter [ ("dpid", "42") ] "lookup_misses_total")

let test_switch_packet_in_and_stats () =
  let sched, agent, ctrl_end, inbox = switch_rig () in
  Switch.set_flow_stats_provider agent (fun _ -> (3, 4096));
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Channel.send ctrl_end
           (Ofmsg.encode
              (Ofmsg.Flow_mod
                 (flow_mod (Ofmatch.exact_5tuple key_ab) [ Action.Output 1 ])))));
  ignore
    (Sched.schedule_at sched (Time.of_ms 10) (fun () ->
         Switch.packet_in agent ~in_port:1 (Bytes.of_string "frame");
         Channel.send ctrl_end
           (Ofmsg.encode ~xid:9
              (Ofmsg.Stats_request (Ofmsg.Flow_stats_req Ofmatch.any)))));
  run sched (Time.of_ms 100);
  check Alcotest.int "one packet_in" 1 (Switch.packet_ins_sent agent);
  let got_packet_in =
    List.exists
      (fun (m, _) ->
        match m with
        | Ofmsg.Packet_in pi ->
            pi.Ofmsg.in_port = 1 && Bytes.to_string pi.Ofmsg.data = "frame"
        | _ -> false)
      !inbox
  in
  check Alcotest.bool "controller saw packet_in" true got_packet_in;
  let stats_ok =
    List.exists
      (fun (m, xid) ->
        match m with
        | Ofmsg.Stats_reply (Ofmsg.Flow_stats_rep [ fs ]) ->
            xid = 9 && fs.Ofmsg.fs_bytes = 4096 && fs.Ofmsg.fs_packets = 3
        | _ -> false)
      !inbox
  in
  check Alcotest.bool "stats served by provider" true stats_ok

(* Each case runs on a fresh [switch_rig] (1 ms channel); [send_at]
   hands a FLOW_MOD to the channel, so it is applied 1 ms later. *)
let test_switch_expiry_hook () =
  let module Registry = Horse_telemetry.Registry in
  let case () =
    let sched, agent, ctrl_end, _ = switch_rig () in
    let expired = ref [] in
    Switch.on_expired agent (fun e -> expired := (Sched.now sched, e) :: !expired);
    Switch.start agent;
    let send_at at fm =
      ignore
        (Sched.schedule_at sched at (fun () ->
             Channel.send ctrl_end (Ofmsg.encode (Ofmsg.Flow_mod fm))))
    in
    (sched, agent, expired, send_at)
  in
  let fired_at expired = List.map (fun (at, _) -> Time.to_us at) !expired in
  let pending sched =
    ignore (Sched.snapshot sched);
    match
      Registry.find_gauge (Sched.registry sched) "horse_sched_pending_events"
    with
    | Some g -> int_of_float (Registry.Gauge.value g)
    | None -> Alcotest.fail "gauge horse_sched_pending_events not registered"
  in
  let m = Ofmatch.exact_5tuple key_ab in
  (* A hard timeout fires at its deadline, not at a whole second. *)
  let sched, agent, expired, send_at = case () in
  send_at (Time.of_ms 499) (flow_mod ~hard:1 m [ Action.Output 1 ]);
  run sched (Time.of_sec 5.0);
  check (Alcotest.list Alcotest.int) "hard 1 s installed at 0.5 s fires at 1.5 s"
    [ 1_500_000 ] (fired_at expired);
  check Alcotest.int "table empty" 0 (Flow_table.size (Switch.table agent));
  check Alcotest.int "no expiry event left" 0 (pending sched);
  (* Traffic moves an idle deadline; the expiry event follows it. *)
  let sched, agent, expired, send_at = case () in
  send_at (Time.of_ms 999) (flow_mod ~idle:5 m [ Action.Output 1 ]);
  ignore
    (Sched.schedule_at sched (Time.of_sec 3.0) (fun () ->
         match Switch.lookup agent (fields key_ab) with
         | Some e -> Flow_table.account e ~now:(Sched.now sched) ~packets:1 ~bytes:100
         | None -> Alcotest.fail "idle entry missing at 3 s"));
  run sched (Time.of_sec 7.999);
  check Alcotest.int "alive until 8 s" 0 (List.length !expired);
  run sched (Time.of_sec 10.0);
  check (Alcotest.list Alcotest.int) "idle 5 s used at 3 s fires at 8 s"
    [ 8_000_000 ] (fired_at expired);
  check Alcotest.int "idle table empty" 0 (Flow_table.size (Switch.table agent));
  (* A DELETE removes a timed entry without an expiry. *)
  let sched, agent, expired, send_at = case () in
  send_at Time.zero (flow_mod ~hard:2 m [ Action.Output 1 ]);
  send_at (Time.of_sec 1.0) (flow_mod ~command:Ofmsg.Delete m []);
  run sched (Time.of_sec 5.0);
  check Alcotest.int "delete fires no hook" 0 (List.length !expired);
  check Alcotest.int "deleted" 0 (Flow_table.size (Switch.table agent));
  check Alcotest.int "delete cancels the expiry event" 0 (pending sched);
  (* Untimed entries arm nothing. *)
  let sched, agent, expired, send_at = case () in
  send_at Time.zero (flow_mod m [ Action.Output 1 ]);
  send_at Time.zero (flow_mod ~priority:20 Ofmatch.any [ Action.Output 2 ]);
  run sched (Time.of_sec 5.0);
  check Alcotest.int "untimed entries stay" 2 (Flow_table.size (Switch.table agent));
  check Alcotest.int "untimed: no hook" 0 (List.length !expired);
  check Alcotest.int "untimed: no pending event" 0 (pending sched);
  (* Like every timer of a killed process, expiry waits for the
     restart, which re-aims it. *)
  let sched = Sched.create () in
  let proc = Process.create sched in
  let sw_end, ctrl_end =
    Channel.endpoints (Channel.create sched ~latency:(Time.of_ms 1) ())
  in
  let agent = Switch.create proc ~dpid:42 ~ports:[ (1, 100) ] sw_end in
  let expired = ref [] in
  Switch.on_expired agent (fun e -> expired := (Sched.now sched, e) :: !expired);
  Channel.send ctrl_end
    (Ofmsg.encode (Ofmsg.Flow_mod (flow_mod ~hard:1 m [ Action.Output 1 ])));
  ignore (Sched.schedule_at sched (Time.of_ms 500) (fun () -> Process.kill proc));
  ignore (Sched.schedule_at sched (Time.of_sec 3.0) (fun () -> Process.restart proc));
  run sched (Time.of_sec 5.0);
  check (Alcotest.list Alcotest.int) "dead at 1.001 s, expired at the 3 s restart"
    [ 3_000_000 ] (fired_at expired)

let test_switch_port_down () =
  let sched, agent, _ctrl_end, inbox = switch_rig () in
  check (Alcotest.option Alcotest.int) "port up" (Some 200)
    (Switch.link_of_port agent 2);
  Switch.set_port_down agent 2;
  Switch.set_port_down agent 2 (* idempotent: one notification *);
  ignore (Sched.run ~until:(Time.of_ms 50) sched);
  check Alcotest.bool "down port unresolvable" true
    (Switch.link_of_port agent 2 = None);
  check Alcotest.bool "marked down" true (Switch.is_port_down agent 2);
  check Alcotest.int "one PORT_STATUS delete" 1
    (List.length
       (List.filter
          (fun (m, _) ->
            match m with
            | Ofmsg.Port_status ps ->
                ps.Ofmsg.pst_port = 2 && ps.Ofmsg.pst_reason = 1
            | _ -> false)
          !inbox));
  Switch.set_port_up agent 2;
  ignore (Sched.run ~until:(Time.of_ms 100) sched);
  check (Alcotest.option Alcotest.int) "port back" (Some 200)
    (Switch.link_of_port agent 2);
  check Alcotest.bool "PORT_STATUS add seen" true
    (List.exists
       (fun (m, _) ->
         match m with
         | Ofmsg.Port_status ps -> ps.Ofmsg.pst_port = 2 && ps.Ofmsg.pst_reason = 0
         | _ -> false)
       !inbox)

let test_switch_echo_and_barrier () =
  let sched, _agent, ctrl_end, inbox = switch_rig () in
  ignore
    (Sched.schedule_at sched Time.zero (fun () ->
         Channel.send ctrl_end (Ofmsg.encode ~xid:5 Ofmsg.Echo_request);
         Channel.send ctrl_end (Ofmsg.encode ~xid:6 Ofmsg.Barrier_request)));
  run sched (Time.of_ms 50);
  check Alcotest.bool "echo reply" true
    (List.exists (fun (m, x) -> m = Ofmsg.Echo_reply && x = 5) !inbox);
  check Alcotest.bool "barrier reply" true
    (List.exists (fun (m, x) -> m = Ofmsg.Barrier_reply && x = 6) !inbox)

let () =
  Alcotest.run "horse_openflow"
    [
      ( "match",
        [
          Alcotest.test_case "any" `Quick test_match_any;
          Alcotest.test_case "exact 5-tuple" `Quick test_match_exact_5tuple;
          Alcotest.test_case "prefix" `Quick test_match_prefix;
          Alcotest.test_case "in_port" `Quick test_match_in_port;
          prop_match_codec_roundtrip;
          prop_match_exact_key_matches;
          Alcotest.test_case "overlap disjointness" `Quick test_overlap_disjoint;
          prop_overlap_sound;
          prop_overlap_reflexive;
          prop_mask_canonical_key;
          prop_mask_projection_stable;
        ] );
      ( "codec",
        [
          Alcotest.test_case "header" `Quick test_ofmsg_header;
          prop_ofmsg_roundtrip;
          prop_ofmsg_decode_total;
          prop_ofmsg_decode_total_mutated;
        ] );
      ( "flow_table",
        [
          Alcotest.test_case "priority" `Quick test_table_priority;
          Alcotest.test_case "add replaces" `Quick test_table_add_replaces;
          Alcotest.test_case "modify and delete" `Quick test_table_modify_and_delete;
          Alcotest.test_case "timeouts" `Quick test_table_timeouts;
          Alcotest.test_case "equal priority fifo" `Quick
            test_table_equal_priority_fifo;
          Alcotest.test_case "add: new rule wins" `Quick test_add_new_rule_wins;
          Alcotest.test_case "delete/expire: fallback" `Quick
            test_remove_falls_back;
          Alcotest.test_case "modify: new actions served" `Quick
            test_modify_serves_new_actions;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "O(1) size, no resort" `Quick test_o1_size_no_resort;
          prop_differential;
        ] );
      ( "switch",
        [
          Alcotest.test_case "handshake" `Quick test_switch_handshake;
          Alcotest.test_case "flow mod + lookup" `Quick
            test_switch_flow_mod_and_lookup;
          Alcotest.test_case "packet_in + stats provider" `Quick
            test_switch_packet_in_and_stats;
          Alcotest.test_case "expiry hook" `Quick test_switch_expiry_hook;
          Alcotest.test_case "echo + barrier" `Quick test_switch_echo_and_barrier;
          Alcotest.test_case "port down/up" `Quick test_switch_port_down;
        ] );
    ]
