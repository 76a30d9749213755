(* Tests for horse_net: addresses, prefixes, checksums, codecs,
   flow keys. *)

open Horse_net

let check = Alcotest.check
let qtest = Horse_test_support.qtest

(* --- generators ----------------------------------------------------- *)

let gen_ipv4 = QCheck2.Gen.map Ipv4.of_int32 QCheck2.Gen.int32

let gen_prefix =
  QCheck2.Gen.map2
    (fun a len -> Prefix.make (Ipv4.of_int32 a) len)
    QCheck2.Gen.int32 (QCheck2.Gen.int_range 0 32)

let gen_mac =
  QCheck2.Gen.map
    (fun i -> Mac.of_int64 (Int64.of_int i))
    (QCheck2.Gen.int_bound max_int)

let gen_port = QCheck2.Gen.int_range 0 65535

let gen_flow_key =
  let open QCheck2.Gen in
  let* src = gen_ipv4 in
  let* dst = gen_ipv4 in
  let* proto = oneofl [ Headers.Proto.Udp; Headers.Proto.Tcp; Headers.Proto.Icmp ] in
  let* src_port = gen_port in
  let* dst_port = gen_port in
  return (Flow_key.make ~src ~dst ~proto ~src_port ~dst_port ())

(* --- IPv4 ------------------------------------------------------------ *)

let test_ipv4_literals () =
  check Alcotest.string "to_string" "10.1.2.3"
    (Ipv4.to_string (Ipv4.of_octets 10 1 2 3));
  check Alcotest.string "any" "0.0.0.0" (Ipv4.to_string Ipv4.any);
  check Alcotest.string "broadcast" "255.255.255.255"
    (Ipv4.to_string Ipv4.broadcast);
  check Alcotest.string "localhost" "127.0.0.1" (Ipv4.to_string Ipv4.localhost)

let test_ipv4_parse_good () =
  List.iter
    (fun s ->
      match Ipv4.of_string s with
      | Some a -> check Alcotest.string s s (Ipv4.to_string a)
      | None -> Alcotest.failf "should parse: %s" s)
    [ "0.0.0.0"; "255.255.255.255"; "192.168.1.1"; "8.8.8.8" ]

let test_ipv4_parse_bad () =
  List.iter
    (fun s ->
      match Ipv4.of_string s with
      | None -> ()
      | Some _ -> Alcotest.failf "should not parse: %S" s)
    [
      ""; "1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "1.2.3.999"; "a.b.c.d";
      "1..2.3"; " 1.2.3.4"; "1.2.3.4 "; "-1.2.3.4"; "1.2.3.4/24";
    ]

let test_ipv4_arithmetic () =
  let a = Ipv4.of_octets 10 0 0 255 in
  check Alcotest.string "succ wraps octet" "10.0.1.0" (Ipv4.to_string (Ipv4.succ a));
  check Alcotest.string "add 257" "10.0.2.0"
    (Ipv4.to_string (Ipv4.add a 257));
  check Alcotest.int "diff" 257 (Ipv4.diff (Ipv4.add a 257) a);
  check Alcotest.string "wrap around" "0.0.0.0"
    (Ipv4.to_string (Ipv4.succ Ipv4.broadcast))

let test_ipv4_unsigned_order () =
  let lo = Ipv4.of_octets 1 0 0 0 and hi = Ipv4.of_octets 200 0 0 0 in
  check Alcotest.bool "unsigned compare" true (Ipv4.compare lo hi < 0)

let prop_ipv4_roundtrip =
  qtest "ipv4: of_string (to_string a) = a" gen_ipv4 (fun a ->
      match Ipv4.of_string (Ipv4.to_string a) with
      | Some b -> Ipv4.equal a b
      | None -> false)

let prop_ipv4_octets_roundtrip =
  qtest "ipv4: octets roundtrip" gen_ipv4 (fun a ->
      let x, y, z, w = Ipv4.to_octets a in
      Ipv4.equal a (Ipv4.of_octets x y z w))

(* --- Prefix ---------------------------------------------------------- *)

let test_prefix_parse () =
  let p = Prefix.of_string_exn "10.1.2.3/16" in
  check Alcotest.string "canonicalized" "10.1.0.0/16" (Prefix.to_string p);
  check Alcotest.int "length" 16 (Prefix.length p);
  check Alcotest.string "netmask" "255.255.0.0" (Ipv4.to_string (Prefix.netmask p));
  check Alcotest.string "broadcast" "10.1.255.255"
    (Ipv4.to_string (Prefix.broadcast p));
  check Alcotest.bool "bare address is /32" true
    (Prefix.equal (Prefix.of_string_exn "1.2.3.4") (Prefix.host (Ipv4.of_octets 1 2 3 4)));
  check Alcotest.bool "bad length rejected" true
    (Prefix.of_string "10.0.0.0/33" = None);
  check Alcotest.bool "empty length rejected" true (Prefix.of_string "10.0.0.0/" = None)

let test_prefix_mem () =
  let p = Prefix.of_string_exn "192.168.0.0/24" in
  check Alcotest.bool "inside" true (Prefix.mem (Ipv4.of_octets 192 168 0 77) p);
  check Alcotest.bool "outside" false (Prefix.mem (Ipv4.of_octets 192 168 1 77) p);
  check Alcotest.bool "default route matches all" true
    (Prefix.mem (Ipv4.of_octets 8 8 8 8) Prefix.any)

let prop_prefix_split_partition =
  qtest "prefix: split partitions the space"
    (QCheck2.Gen.map2
       (fun a len -> Prefix.make (Ipv4.of_int32 a) len)
       QCheck2.Gen.int32 (QCheck2.Gen.int_range 0 31))
    (fun p ->
      match Prefix.split p with
      | None -> false
      | Some (l, r) ->
          Prefix.size l = Prefix.size p / 2
          && Prefix.size r = Prefix.size p / 2
          && Prefix.subset l p && Prefix.subset r p
          && (not (Prefix.overlaps l r))
          && Ipv4.equal (Prefix.network l) (Prefix.network p)
          && Ipv4.equal (Ipv4.add (Prefix.broadcast l) 1) (Prefix.network r))

let prop_prefix_mem_network =
  qtest "prefix: network and broadcast are members" gen_prefix (fun p ->
      Prefix.mem (Prefix.network p) p && Prefix.mem (Prefix.broadcast p) p)

let prop_prefix_subset_mem =
  qtest "prefix: subset implies member containment"
    (QCheck2.Gen.pair gen_prefix gen_prefix) (fun (p, q) ->
      (not (Prefix.subset p q)) || Prefix.mem (Prefix.network p) q)

let prop_prefix_string_roundtrip =
  qtest "prefix: string roundtrip" gen_prefix (fun p ->
      match Prefix.of_string (Prefix.to_string p) with
      | Some q -> Prefix.equal p q
      | None -> false)

let test_prefix_nth () =
  let p = Prefix.of_string_exn "10.0.0.0/30" in
  check Alcotest.(option string) "nth 0" (Some "10.0.0.0")
    (Option.map Ipv4.to_string (Prefix.nth p 0));
  check Alcotest.(option string) "nth 3" (Some "10.0.0.3")
    (Option.map Ipv4.to_string (Prefix.nth p 3));
  check Alcotest.(option string) "nth 4 out of range" None
    (Option.map Ipv4.to_string (Prefix.nth p 4))

(* --- MAC ------------------------------------------------------------- *)

let test_mac_basics () =
  let m = Mac.of_string_exn "00:1B:21:3c:9D:f8" in
  check Alcotest.string "lowercase format" "00:1b:21:3c:9d:f8" (Mac.to_string m);
  check Alcotest.bool "broadcast is multicast" true (Mac.is_multicast Mac.broadcast);
  check Alcotest.bool "of_index is unicast" false
    (Mac.is_multicast (Mac.of_index 7));
  check Alcotest.bool "bad string" true (Mac.of_string "00:1b:21:3c:9d" = None);
  check Alcotest.bool "bad hex" true (Mac.of_string "zz:1b:21:3c:9d:f8" = None)

let prop_mac_roundtrip =
  qtest "mac: string roundtrip" gen_mac (fun m ->
      match Mac.of_string (Mac.to_string m) with
      | Some m' -> Mac.equal m m'
      | None -> false)

let prop_mac_of_index_injective =
  qtest "mac: of_index injective on distinct indices"
    (QCheck2.Gen.pair (QCheck2.Gen.int_bound 1_000_000) (QCheck2.Gen.int_bound 1_000_000))
    (fun (i, j) -> i = j || not (Mac.equal (Mac.of_index i) (Mac.of_index j)))

(* --- Checksum -------------------------------------------------------- *)

let gen_bytes =
  QCheck2.Gen.map Bytes.of_string QCheck2.Gen.(string_size (int_range 0 200))

let prop_checksum_verifies =
  qtest "checksum: data + stored checksum verifies" gen_bytes (fun data ->
      (* Append the checksum as the final 16-bit word; the whole
         region must then verify. *)
      let padded =
        if Bytes.length data mod 2 = 0 then data
        else Bytes.cat data (Bytes.make 1 '\000')
      in
      let c = Checksum.of_bytes padded 0 (Bytes.length padded) in
      let whole = Bytes.cat padded (Bytes.make 2 '\000') in
      Bytes.set_uint16_be whole (Bytes.length padded) c;
      Checksum.verify whole 0 (Bytes.length whole))

let prop_checksum_split_invariance =
  qtest "checksum: splitting at even offsets preserves the sum"
    (QCheck2.Gen.pair gen_bytes (QCheck2.Gen.int_bound 100))
    (fun (data, cut) ->
      let cut = cut * 2 in
      if cut > Bytes.length data then true
      else
        let whole = Checksum.of_bytes data 0 (Bytes.length data) in
        let acc = Checksum.add_bytes Checksum.empty data 0 cut in
        let acc = Checksum.add_bytes acc data cut (Bytes.length data - cut) in
        Checksum.finish acc = whole)

let test_checksum_known () =
  (* RFC 1071's worked example: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2,
     checksum 220d. *)
  let data = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  check Alcotest.int "rfc1071 example" 0x220D (Checksum.of_bytes data 0 8)

(* --- Headers / Packet ------------------------------------------------ *)

let gen_payload =
  QCheck2.Gen.map Bytes.of_string QCheck2.Gen.(string_size (int_range 0 64))

let gen_udp_packet =
  let open QCheck2.Gen in
  let* src = gen_ipv4 in
  let* dst = gen_ipv4 in
  let* src_port = gen_port in
  let* dst_port = gen_port in
  let* src_mac = gen_mac in
  let* dst_mac = gen_mac in
  let* payload = gen_payload in
  return
    (Packet.udp ~src_mac ~dst_mac ~src ~dst ~src_port ~dst_port payload)

let gen_tcp_packet =
  let open QCheck2.Gen in
  let* src = gen_ipv4 in
  let* dst = gen_ipv4 in
  let* src_port = gen_port in
  let* dst_port = gen_port in
  let* seq = int_bound 0xFFFF in
  let* payload = gen_payload in
  return
    (Packet.tcp
       ~src_mac:(Mac.of_index 1)
       ~dst_mac:(Mac.of_index 2)
       ~src ~dst ~src_port ~dst_port ~seq payload)

let prop_packet_udp_roundtrip =
  qtest "packet: udp encode/decode roundtrip" gen_udp_packet (fun p ->
      match Packet.decode (Packet.encode p) with
      | Ok q -> Packet.equal p q
      | Error _ -> false)

let prop_packet_tcp_roundtrip =
  qtest "packet: tcp encode/decode roundtrip" gen_tcp_packet (fun p ->
      match Packet.decode (Packet.encode p) with
      | Ok q -> Packet.equal p q
      | Error _ -> false)

let prop_packet_decode_total =
  qtest ~count:500 "packet: decoder never raises on arbitrary bytes"
    QCheck2.Gen.(map Bytes.of_string (string_size (int_range 0 120)))
    (fun junk ->
      match Packet.decode junk with Ok _ | Error _ -> true)

let prop_packet_decode_total_mutated =
  qtest ~count:300 "packet: decoder never raises on mutated frames"
    (QCheck2.Gen.triple gen_udp_packet (QCheck2.Gen.int_bound 200)
       (QCheck2.Gen.int_bound 255))
    (fun (p, pos, v) ->
      let buf = Packet.encode p in
      if Bytes.length buf > 0 then
        Bytes.set_uint8 buf (pos mod Bytes.length buf) v;
      match Packet.decode buf with Ok _ | Error _ -> true)

let prop_packet_size =
  qtest "packet: size matches encoding" gen_udp_packet (fun p ->
      Bytes.length (Packet.encode p) = Packet.size p)

let test_packet_arp_roundtrip () =
  let req =
    Packet.arp_request
      ~src_mac:(Mac.of_index 3)
      ~src:(Ipv4.of_octets 10 0 0 1)
      ~target:(Ipv4.of_octets 10 0 0 2)
  in
  (match Packet.decode (Packet.encode req) with
  | Ok q -> check Alcotest.bool "arp request" true (Packet.equal req q)
  | Error e -> Alcotest.fail e);
  let rep =
    Packet.arp_reply
      ~src_mac:(Mac.of_index 4)
      ~dst_mac:(Mac.of_index 3)
      ~src:(Ipv4.of_octets 10 0 0 2)
      ~target:(Ipv4.of_octets 10 0 0 2)
  in
  match Packet.decode (Packet.encode rep) with
  | Ok q -> check Alcotest.bool "arp reply" true (Packet.equal rep q)
  | Error e -> Alcotest.fail e

let test_packet_corruption_detected () =
  let p =
    Packet.udp ~src_mac:(Mac.of_index 1) ~dst_mac:(Mac.of_index 2)
      ~src:(Ipv4.of_octets 10 0 0 1) ~dst:(Ipv4.of_octets 10 0 0 2)
      ~src_port:1234 ~dst_port:80 (Bytes.of_string "hello")
  in
  let buf = Packet.encode p in
  (* Flip a payload byte: the UDP checksum must catch it. *)
  let off = Bytes.length buf - 1 in
  Bytes.set_uint8 buf off (Bytes.get_uint8 buf off lxor 0xFF);
  match Packet.decode buf with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted packet decoded successfully"

let test_packet_truncation_detected () =
  let p =
    Packet.udp ~src_mac:(Mac.of_index 1) ~dst_mac:(Mac.of_index 2)
      ~src:(Ipv4.of_octets 10 0 0 1) ~dst:(Ipv4.of_octets 10 0 0 2)
      ~src_port:1234 ~dst_port:80 (Bytes.of_string "hello world")
  in
  let buf = Packet.encode p in
  let short = Bytes.sub buf 0 (Bytes.length buf - 4) in
  match Packet.decode short with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated packet decoded successfully"

let test_ip_header_checksum () =
  let header =
    {
      Headers.Ip.dscp = 0;
      ident = 42;
      dont_fragment = true;
      ttl = 64;
      proto = Headers.Proto.Udp;
      src = Ipv4.of_octets 192 168 0 1;
      dst = Ipv4.of_octets 192 168 0 2;
      total_length = 20;
    }
  in
  let buf = Bytes.make 20 '\000' in
  Headers.Ip.write buf 0 header;
  check Alcotest.bool "verifies" true (Checksum.verify buf 0 20);
  Bytes.set_uint8 buf 8 63 (* corrupt TTL *);
  match Headers.Ip.read buf 0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt IP header accepted"

(* --- Flow keys ------------------------------------------------------- *)

let test_flow_key_of_packet () =
  let p =
    Packet.udp ~src_mac:(Mac.of_index 1) ~dst_mac:(Mac.of_index 2)
      ~src:(Ipv4.of_octets 10 0 0 1) ~dst:(Ipv4.of_octets 10 0 0 2)
      ~src_port:5555 ~dst_port:53 Bytes.empty
  in
  match Flow_key.of_packet p with
  | Some k ->
      check Alcotest.int "src port" 5555 k.Flow_key.src_port;
      check Alcotest.int "dst port" 53 k.Flow_key.dst_port;
      check Alcotest.string "src" "10.0.0.1" (Ipv4.to_string k.Flow_key.src)
  | None -> Alcotest.fail "no flow key for UDP packet"

let prop_flow_key_hash_deterministic =
  qtest "flow_key: hashes are deterministic and non-negative" gen_flow_key
    (fun k ->
      Flow_key.hash_5tuple k = Flow_key.hash_5tuple k
      && Flow_key.hash_src_dst k = Flow_key.hash_src_dst k
      && Flow_key.hash_5tuple k >= 0
      && Flow_key.hash_src_dst k >= 0)

let prop_flow_key_src_dst_ignores_ports =
  qtest "flow_key: src/dst hash ignores ports"
    (QCheck2.Gen.triple gen_flow_key gen_port gen_port)
    (fun (k, sp, dp) ->
      Flow_key.hash_src_dst k
      = Flow_key.hash_src_dst { k with Flow_key.src_port = sp; dst_port = dp })

let prop_flow_key_reverse_involution =
  qtest "flow_key: reverse is an involution" gen_flow_key (fun k ->
      Flow_key.equal k (Flow_key.reverse (Flow_key.reverse k)))

let test_flow_key_select_bounds () =
  let k =
    Flow_key.make ~src:(Ipv4.of_octets 1 2 3 4) ~dst:(Ipv4.of_octets 5 6 7 8) ()
  in
  for n = 1 to 20 do
    let i = Flow_key.select ~hash:(Flow_key.hash_5tuple k) n in
    if i < 0 || i >= n then Alcotest.failf "select out of range: %d of %d" i n
  done;
  Alcotest.check_raises "select on empty" (Invalid_argument "Flow_key.select: empty bucket set")
    (fun () -> ignore (Flow_key.select ~hash:3 0))

let test_hash_spread () =
  (* 5-tuple hashing over 4 buckets should use every bucket for the
     demonstration's flow population. *)
  let counts = Array.make 4 0 in
  for i = 0 to 127 do
    let k =
      Flow_key.make
        ~src:(Ipv4.of_octets 10 0 (i / 8) (i mod 8 + 2))
        ~dst:(Ipv4.of_octets 10 1 (i / 8) (i mod 8 + 2))
        ~src_port:(10000 + i) ~dst_port:(20000 + i) ()
    in
    let b = Flow_key.select ~hash:(Flow_key.hash_5tuple k) 4 in
    counts.(b) <- counts.(b) + 1
  done;
  Array.iteri
    (fun i c ->
      if c = 0 then Alcotest.failf "bucket %d never used" i)
    counts

let () =
  Alcotest.run "horse_net"
    [
      ( "ipv4",
        [
          Alcotest.test_case "literals" `Quick test_ipv4_literals;
          Alcotest.test_case "parse good" `Quick test_ipv4_parse_good;
          Alcotest.test_case "parse bad" `Quick test_ipv4_parse_bad;
          Alcotest.test_case "arithmetic" `Quick test_ipv4_arithmetic;
          Alcotest.test_case "unsigned order" `Quick test_ipv4_unsigned_order;
          prop_ipv4_roundtrip;
          prop_ipv4_octets_roundtrip;
        ] );
      ( "prefix",
        [
          Alcotest.test_case "parse" `Quick test_prefix_parse;
          Alcotest.test_case "mem" `Quick test_prefix_mem;
          Alcotest.test_case "nth" `Quick test_prefix_nth;
          prop_prefix_split_partition;
          prop_prefix_mem_network;
          prop_prefix_subset_mem;
          prop_prefix_string_roundtrip;
        ] );
      ( "mac",
        [
          Alcotest.test_case "basics" `Quick test_mac_basics;
          prop_mac_roundtrip;
          prop_mac_of_index_injective;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "known value" `Quick test_checksum_known;
          prop_checksum_verifies;
          prop_checksum_split_invariance;
        ] );
      ( "packet",
        [
          Alcotest.test_case "arp roundtrip" `Quick test_packet_arp_roundtrip;
          Alcotest.test_case "corruption detected" `Quick test_packet_corruption_detected;
          Alcotest.test_case "truncation detected" `Quick test_packet_truncation_detected;
          Alcotest.test_case "ip header checksum" `Quick test_ip_header_checksum;
          prop_packet_udp_roundtrip;
          prop_packet_decode_total;
          prop_packet_decode_total_mutated;
          prop_packet_tcp_roundtrip;
          prop_packet_size;
        ] );
      ( "flow_key",
        [
          Alcotest.test_case "of_packet" `Quick test_flow_key_of_packet;
          Alcotest.test_case "select bounds" `Quick test_flow_key_select_bounds;
          Alcotest.test_case "hash spread" `Quick test_hash_spread;
          prop_flow_key_hash_deterministic;
          prop_flow_key_src_dst_ignores_ports;
          prop_flow_key_reverse_involution;
        ] );
    ]
