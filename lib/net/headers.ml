open Wire

module Proto = struct
  type t = Icmp | Tcp | Udp | Other of int

  let to_int = function Icmp -> 1 | Tcp -> 6 | Udp -> 17 | Other n -> n land 0xFF

  let of_int = function
    | 1 -> Icmp
    | 6 -> Tcp
    | 17 -> Udp
    | n -> Other (n land 0xFF)

  let pp fmt = function
    | Icmp -> Format.pp_print_string fmt "icmp"
    | Tcp -> Format.pp_print_string fmt "tcp"
    | Udp -> Format.pp_print_string fmt "udp"
    | Other n -> Format.fprintf fmt "proto-%d" n

  let equal a b = to_int a = to_int b
end

module Eth = struct
  type ethertype = Ipv4_type | Arp_type | Unknown of int

  type t = { dst : Mac.t; src : Mac.t; ethertype : ethertype }

  let size = 14

  let ethertype_to_int = function
    | Ipv4_type -> 0x0800
    | Arp_type -> 0x0806
    | Unknown n -> n land 0xFFFF

  let ethertype_of_int = function
    | 0x0800 -> Ipv4_type
    | 0x0806 -> Arp_type
    | n -> Unknown (n land 0xFFFF)

  let write buf off t =
    set_mac buf off t.dst;
    set_mac buf (off + 6) t.src;
    set_u16 buf (off + 12) (ethertype_to_int t.ethertype)

  let read buf off =
    let* dst = mac buf off in
    let* src = mac buf (off + 6) in
    let* et = u16 buf (off + 12) in
    Ok { dst; src; ethertype = ethertype_of_int et }

  let equal a b =
    Mac.equal a.dst b.dst && Mac.equal a.src b.src
    && ethertype_to_int a.ethertype = ethertype_to_int b.ethertype
end

module Arp = struct
  type op = Request | Reply

  type t = {
    op : op;
    sender_mac : Mac.t;
    sender_ip : Ipv4.t;
    target_mac : Mac.t;
    target_ip : Ipv4.t;
  }

  let size = 28

  let write buf off t =
    set_u16 buf off 1 (* htype: Ethernet *);
    set_u16 buf (off + 2) 0x0800 (* ptype: IPv4 *);
    set_u8 buf (off + 4) 6;
    set_u8 buf (off + 5) 4;
    set_u16 buf (off + 6) (match t.op with Request -> 1 | Reply -> 2);
    set_mac buf (off + 8) t.sender_mac;
    set_ipv4 buf (off + 14) t.sender_ip;
    set_mac buf (off + 18) t.target_mac;
    set_ipv4 buf (off + 24) t.target_ip

  let read buf off =
    let* htype = u16 buf off in
    let* ptype = u16 buf (off + 2) in
    let* hlen = u8 buf (off + 4) in
    let* plen = u8 buf (off + 5) in
    if htype <> 1 || ptype <> 0x0800 || hlen <> 6 || plen <> 4 then
      Error "arp: unsupported hardware/protocol type"
    else
      let* opn = u16 buf (off + 6) in
      let* op =
        match opn with
        | 1 -> Ok Request
        | 2 -> Ok Reply
        | n -> Error (Printf.sprintf "arp: unknown opcode %d" n)
      in
      let* sender_mac = mac buf (off + 8) in
      let* sender_ip = ipv4 buf (off + 14) in
      let* target_mac = mac buf (off + 18) in
      let* target_ip = ipv4 buf (off + 24) in
      Ok { op; sender_mac; sender_ip; target_mac; target_ip }

  let equal a b =
    a.op = b.op
    && Mac.equal a.sender_mac b.sender_mac
    && Ipv4.equal a.sender_ip b.sender_ip
    && Mac.equal a.target_mac b.target_mac
    && Ipv4.equal a.target_ip b.target_ip
end

module Ip = struct
  type t = {
    dscp : int;
    ident : int;
    dont_fragment : bool;
    ttl : int;
    proto : Proto.t;
    src : Ipv4.t;
    dst : Ipv4.t;
    total_length : int;
  }

  let size = 20

  let write buf off t =
    set_u8 buf off 0x45 (* version 4, IHL 5 *);
    set_u8 buf (off + 1) ((t.dscp land 0x3F) lsl 2);
    set_u16 buf (off + 2) t.total_length;
    set_u16 buf (off + 4) t.ident;
    set_u16 buf (off + 6) (if t.dont_fragment then 0x4000 else 0);
    set_u8 buf (off + 8) t.ttl;
    set_u8 buf (off + 9) (Proto.to_int t.proto);
    set_u16 buf (off + 10) 0 (* checksum placeholder *);
    set_ipv4 buf (off + 12) t.src;
    set_ipv4 buf (off + 16) t.dst;
    set_u16 buf (off + 10) (Checksum.of_bytes buf off size)

  let read buf off =
    let* vihl = u8 buf off in
    if vihl lsr 4 <> 4 then Error "ip: not version 4"
    else if vihl land 0xF <> 5 then Error "ip: options unsupported"
    else
      let* () = check buf off size in
      if not (Checksum.verify buf off size) then Error "ip: bad header checksum"
      else
        let* tos = u8 buf (off + 1) in
        let* total_length = u16 buf (off + 2) in
        let* ident = u16 buf (off + 4) in
        let* frag = u16 buf (off + 6) in
        let* ttl = u8 buf (off + 8) in
        let* proto = u8 buf (off + 9) in
        let* src = ipv4 buf (off + 12) in
        let* dst = ipv4 buf (off + 16) in
        Ok
          {
            dscp = tos lsr 2;
            ident;
            dont_fragment = frag land 0x4000 <> 0;
            ttl;
            proto = Proto.of_int proto;
            src;
            dst;
            total_length;
          }
end

(* Ones'-complement sum of the RFC 768/793 pseudo-header. *)
let pseudo_header_sum ~src ~dst ~proto ~length =
  let acc = Checksum.empty in
  let src32 = Int32.to_int (Ipv4.to_int32 src) land 0xFFFFFFFF in
  let dst32 = Int32.to_int (Ipv4.to_int32 dst) land 0xFFFFFFFF in
  let acc = Checksum.add_uint16 acc (src32 lsr 16) in
  let acc = Checksum.add_uint16 acc src32 in
  let acc = Checksum.add_uint16 acc (dst32 lsr 16) in
  let acc = Checksum.add_uint16 acc dst32 in
  let acc = Checksum.add_uint16 acc (Proto.to_int proto) in
  Checksum.add_uint16 acc length

module Udp = struct
  type t = { src_port : int; dst_port : int; length : int }

  let size = 8

  let write_with_checksum buf off t ~src ~dst ~payload_off =
    set_u16 buf off t.src_port;
    set_u16 buf (off + 2) t.dst_port;
    set_u16 buf (off + 4) t.length;
    set_u16 buf (off + 6) 0;
    let acc = pseudo_header_sum ~src ~dst ~proto:Proto.Udp ~length:t.length in
    let acc = Checksum.add_bytes acc buf off size in
    let acc = Checksum.add_bytes acc buf payload_off (t.length - size) in
    let csum = Checksum.finish acc in
    (* RFC 768: a computed zero checksum is transmitted as all-ones. *)
    set_u16 buf (off + 6) (if csum = 0 then 0xFFFF else csum)

  let read buf off =
    let* src_port = u16 buf off in
    let* dst_port = u16 buf (off + 2) in
    let* length = u16 buf (off + 4) in
    if length < size then Error "udp: length shorter than header"
    else Ok { src_port; dst_port; length }
end

module Tcp = struct
  type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool }

  type t = {
    src_port : int;
    dst_port : int;
    seq : int;
    ack_num : int;
    flags : flags;
    window : int;
  }

  let size = 20
  let no_flags = { syn = false; ack = false; fin = false; rst = false; psh = false }

  let flags_to_int f =
    (if f.fin then 0x01 else 0)
    lor (if f.syn then 0x02 else 0)
    lor (if f.rst then 0x04 else 0)
    lor (if f.psh then 0x08 else 0)
    lor if f.ack then 0x10 else 0

  let flags_of_int n =
    {
      fin = n land 0x01 <> 0;
      syn = n land 0x02 <> 0;
      rst = n land 0x04 <> 0;
      psh = n land 0x08 <> 0;
      ack = n land 0x10 <> 0;
    }

  let write_with_checksum buf off t ~src ~dst ~payload_off ~payload_len =
    set_u16 buf off t.src_port;
    set_u16 buf (off + 2) t.dst_port;
    set_u32_int buf (off + 4) t.seq;
    set_u32_int buf (off + 8) t.ack_num;
    set_u8 buf (off + 12) (5 lsl 4) (* data offset 5 *);
    set_u8 buf (off + 13) (flags_to_int t.flags);
    set_u16 buf (off + 14) t.window;
    set_u16 buf (off + 16) 0 (* checksum placeholder *);
    set_u16 buf (off + 18) 0 (* urgent pointer *);
    let length = size + payload_len in
    let acc = pseudo_header_sum ~src ~dst ~proto:Proto.Tcp ~length in
    let acc = Checksum.add_bytes acc buf off size in
    let acc = Checksum.add_bytes acc buf payload_off payload_len in
    set_u16 buf (off + 16) (Checksum.finish acc)

  let read buf off =
    let* src_port = u16 buf off in
    let* dst_port = u16 buf (off + 2) in
    let* seq = u32_int buf (off + 4) in
    let* ack_num = u32_int buf (off + 8) in
    let* data_off = u8 buf (off + 12) in
    if data_off lsr 4 <> 5 then Error "tcp: options unsupported"
    else
      let* fl = u8 buf (off + 13) in
      let* window = u16 buf (off + 14) in
      Ok { src_port; dst_port; seq; ack_num; flags = flags_of_int fl; window }

  let equal a b =
    a.src_port = b.src_port && a.dst_port = b.dst_port && a.seq = b.seq
    && a.ack_num = b.ack_num
    && flags_to_int a.flags = flags_to_int b.flags
    && a.window = b.window
end
