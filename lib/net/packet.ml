open Headers

type l4 =
  | Udp of Udp.t * Bytes.t
  | Tcp of Tcp.t * Bytes.t
  | Raw_l4 of Proto.t * Bytes.t

type body = Arp of Arp.t | Ipv4 of Ip.t * l4 | Raw of Bytes.t

type t = { eth : Eth.t; body : body }

let l4_size = function
  | Udp (_, p) -> Udp.size + Bytes.length p
  | Tcp (_, p) -> Tcp.size + Bytes.length p
  | Raw_l4 (_, p) -> Bytes.length p

let size t =
  Eth.size
  +
  match t.body with
  | Arp _ -> Arp.size
  | Ipv4 (_, l4) -> Ip.size + l4_size l4
  | Raw p -> Bytes.length p

let encode t =
  let buf = Bytes.make (size t) '\000' in
  Eth.write buf 0 t.eth;
  let off = Eth.size in
  (match t.body with
  | Arp a -> Arp.write buf off a
  | Raw p -> Bytes.blit p 0 buf off (Bytes.length p)
  | Ipv4 (ip, l4) ->
      let total_length = Ip.size + l4_size l4 in
      let proto =
        match l4 with
        | Udp _ -> Proto.Udp
        | Tcp _ -> Proto.Tcp
        | Raw_l4 (p, _) -> p
      in
      Ip.write buf off { ip with total_length; proto };
      let l4_off = off + Ip.size in
      (match l4 with
      | Udp (u, payload) ->
          let payload_off = l4_off + Udp.size in
          Bytes.blit payload 0 buf payload_off (Bytes.length payload);
          Udp.write_with_checksum buf l4_off
            { u with length = Udp.size + Bytes.length payload }
            ~src:ip.Ip.src ~dst:ip.Ip.dst ~payload_off
      | Tcp (tc, payload) ->
          let payload_off = l4_off + Tcp.size in
          Bytes.blit payload 0 buf payload_off (Bytes.length payload);
          Tcp.write_with_checksum buf l4_off tc ~src:ip.Ip.src ~dst:ip.Ip.dst
            ~payload_off ~payload_len:(Bytes.length payload)
      | Raw_l4 (_, payload) ->
          Bytes.blit payload 0 buf l4_off (Bytes.length payload)));
  buf

let decode_l4 buf off (ip : Ip.t) =
  let open Wire in
  let avail = ip.total_length - Ip.size in
  let* () =
    if avail < 0 then Error "ip: total_length shorter than header"
    else check buf off avail
  in
  match ip.proto with
  | Proto.Udp ->
      let* u = Udp.read buf off in
      if u.Udp.length > avail then Error "udp: length exceeds ip payload"
      else
        let sum =
          pseudo_header_sum ~src:ip.src ~dst:ip.dst ~proto:Proto.Udp
            ~length:u.Udp.length
        in
        let sum = Checksum.add_bytes sum buf off u.Udp.length in
        if Checksum.finish sum <> 0 then Error "udp: bad checksum"
        else
          let* payload = bytes (u.Udp.length - Udp.size) buf (off + Udp.size) in
          Ok (Udp (u, payload))
  | Proto.Tcp ->
      let* tc = Tcp.read buf off in
      let sum =
        pseudo_header_sum ~src:ip.src ~dst:ip.dst ~proto:Proto.Tcp
          ~length:avail
      in
      let sum = Checksum.add_bytes sum buf off avail in
      if Checksum.finish sum <> 0 then Error "tcp: bad checksum"
      else
        let* payload = bytes (avail - Tcp.size) buf (off + Tcp.size) in
        Ok (Tcp (tc, payload))
  | Proto.Icmp | Proto.Other _ ->
      let* payload = bytes avail buf off in
      Ok (Raw_l4 (ip.proto, payload))

let decode buf =
  let open Wire in
  let* eth = Eth.read buf 0 in
  let off = Eth.size in
  let* body =
    match eth.Eth.ethertype with
    | Eth.Arp_type ->
        let* a = Arp.read buf off in
        Ok (Arp a)
    | Eth.Ipv4_type ->
        let* ip = Ip.read buf off in
        let* l4 = decode_l4 buf (off + Ip.size) ip in
        Ok (Ipv4 (ip, l4))
    | Eth.Unknown _ ->
        let* payload = bytes (Bytes.length buf - off) buf off in
        Ok (Raw payload)
  in
  Ok { eth; body }

(* The IPv4 TTL of every packet built here. *)
let default_ttl = 64

let ip_header ~src ~dst proto =
  {
    Ip.dscp = 0;
    ident = 0;
    dont_fragment = true;
    ttl = default_ttl;
    proto;
    src;
    dst;
    total_length = 0 (* recomputed by encode *);
  }

let udp ~src_mac ~dst_mac ~src ~dst ~src_port ~dst_port payload =
  {
    eth = { Eth.dst = dst_mac; src = src_mac; ethertype = Eth.Ipv4_type };
    body =
      Ipv4
        ( ip_header ~src ~dst Proto.Udp,
          Udp ({ Udp.src_port; dst_port; length = 0 }, payload) );
  }

let tcp ~src_mac ~dst_mac ~src ~dst ~src_port ~dst_port ?(seq = 0) payload =
  {
    eth = { Eth.dst = dst_mac; src = src_mac; ethertype = Eth.Ipv4_type };
    body =
      Ipv4
        ( ip_header ~src ~dst Proto.Tcp,
          Tcp
            ( { Tcp.src_port; dst_port; seq; ack_num = 0; flags = Tcp.no_flags;
                window = 65535 },
              payload ) );
  }

let arp_request ~src_mac ~src ~target =
  {
    eth = { Eth.dst = Mac.broadcast; src = src_mac; ethertype = Eth.Arp_type };
    body =
      Arp
        {
          Arp.op = Arp.Request;
          sender_mac = src_mac;
          sender_ip = src;
          target_mac = Mac.zero;
          target_ip = target;
        };
  }

let arp_reply ~src_mac ~dst_mac ~src ~target =
  {
    eth = { Eth.dst = dst_mac; src = src_mac; ethertype = Eth.Arp_type };
    body =
      Arp
        {
          Arp.op = Arp.Reply;
          sender_mac = src_mac;
          sender_ip = src;
          target_mac = dst_mac;
          target_ip = target;
        };
  }

let l4_equal a b =
  match (a, b) with
  | Udp (ua, pa), Udp (ub, pb) ->
      (* The length field is owned by the codec; ports and payload are
         the semantic content. *)
      ua.Udp.src_port = ub.Udp.src_port
      && ua.Udp.dst_port = ub.Udp.dst_port
      && Bytes.equal pa pb
  | Tcp (ta, pa), Tcp (tb, pb) -> Tcp.equal ta tb && Bytes.equal pa pb
  | Raw_l4 (qa, pa), Raw_l4 (qb, pb) -> Proto.equal qa qb && Bytes.equal pa pb
  | (Udp _ | Tcp _ | Raw_l4 _), _ -> false

let body_equal a b =
  match (a, b) with
  | Arp x, Arp y -> Arp.equal x y
  | Ipv4 (ia, la), Ipv4 (ib, lb) ->
      (* Length/ident fields are owned by the codec; compare the
         semantic fields only. *)
      Ipv4.equal ia.Ip.src ib.Ip.src
      && Ipv4.equal ia.Ip.dst ib.Ip.dst
      && Proto.equal ia.Ip.proto ib.Ip.proto
      && ia.Ip.ttl = ib.Ip.ttl && l4_equal la lb
  | Raw x, Raw y -> Bytes.equal x y
  | (Arp _ | Ipv4 _ | Raw _), _ -> false

let equal a b = Eth.equal a.eth b.eth && body_equal a.body b.body
