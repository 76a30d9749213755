open Horse_net
open Wire

type fields = {
  in_port : int;
  eth_src : Mac.t;
  eth_dst : Mac.t;
  eth_type : int;
  ip_src : Ipv4.t;
  ip_dst : Ipv4.t;
  ip_proto : int;
  tp_src : int;
  tp_dst : int;
}

let fields_of_key ?(in_port = 0) (k : Flow_key.t) =
  {
    in_port;
    eth_src = Mac.of_index (Ipv4.hash k.Flow_key.src land 0xFFFF);
    eth_dst = Mac.of_index (Ipv4.hash k.Flow_key.dst land 0xFFFF);
    eth_type = 0x0800;
    ip_src = k.Flow_key.src;
    ip_dst = k.Flow_key.dst;
    ip_proto = Headers.Proto.to_int k.Flow_key.proto;
    tp_src = k.Flow_key.src_port;
    tp_dst = k.Flow_key.dst_port;
  }

type t = {
  m_in_port : int option;
  m_eth_src : Mac.t option;
  m_eth_dst : Mac.t option;
  m_eth_type : int option;
  m_ip_src : Prefix.t option;
  m_ip_dst : Prefix.t option;
  m_ip_proto : int option;
  m_tp_src : int option;
  m_tp_dst : int option;
}

let any =
  {
    m_in_port = None;
    m_eth_src = None;
    m_eth_dst = None;
    m_eth_type = None;
    m_ip_src = None;
    m_ip_dst = None;
    m_ip_proto = None;
    m_tp_src = None;
    m_tp_dst = None;
  }

let exact_5tuple (k : Flow_key.t) =
  {
    any with
    m_eth_type = Some 0x0800;
    m_ip_src = Some (Prefix.host k.Flow_key.src);
    m_ip_dst = Some (Prefix.host k.Flow_key.dst);
    m_ip_proto = Some (Headers.Proto.to_int k.Flow_key.proto);
    m_tp_src = Some k.Flow_key.src_port;
    m_tp_dst = Some k.Flow_key.dst_port;
  }

let to_dst prefix = { any with m_eth_type = Some 0x0800; m_ip_dst = Some prefix }

let fields_equal (a : fields) (b : fields) =
  a.in_port = b.in_port
  && Mac.equal a.eth_src b.eth_src
  && Mac.equal a.eth_dst b.eth_dst
  && a.eth_type = b.eth_type
  && Ipv4.equal a.ip_src b.ip_src
  && Ipv4.equal a.ip_dst b.ip_dst
  && a.ip_proto = b.ip_proto
  && a.tp_src = b.tp_src
  && a.tp_dst = b.tp_dst

let mix h k =
  let h = Int64.logxor h (Int64.mul k 0xff51afd7ed558ccdL) in
  Int64.mul
    (Int64.logxor h (Int64.shift_right_logical h 29))
    0xc4ceb9fe1a85ec53L

let u32 a = Int64.logand (Int64.of_int32 (Ipv4.to_int32 a)) 0xFFFFFFFFL

let hash_fields (f : fields) =
  let h = 0x9E3779B97F4A7C15L in
  let h = mix h (Int64.of_int ((f.in_port lsl 20) lor f.eth_type)) in
  let h = mix h (Mac.to_int64 f.eth_src) in
  let h = mix h (Mac.to_int64 f.eth_dst) in
  let h = mix h (u32 f.ip_src) in
  let h = mix h (u32 f.ip_dst) in
  let h =
    mix h (Int64.of_int ((f.ip_proto lsl 32) lor (f.tp_src lsl 16) lor f.tp_dst))
  in
  Int64.to_int h land max_int

module Fields_key = struct
  type t = fields

  let equal = fields_equal
  let hash = hash_fields
end

(* Truncate an address to its first [len] bits (a /len network). *)
let trunc addr len =
  if len <= 0 then Ipv4.any
  else if len >= 32 then addr
  else
    Ipv4.of_int32
      (Int32.logand (Ipv4.to_int32 addr) (Int32.shift_left 0xFFFFFFFFl (32 - len)))

module Mask = struct
  type t = {
    k_in_port : bool;
    k_eth_src : bool;
    k_eth_dst : bool;
    k_eth_type : bool;
    k_ip_src : int;
    k_ip_dst : int;
    k_ip_proto : bool;
    k_tp_src : bool;
    k_tp_dst : bool;
  }

  (* The record holds only immediates, so structural equality and the
     polymorphic hash are exact and allocation-free. *)
  let equal (a : t) (b : t) = a = b
  let hash (t : t) = Hashtbl.hash t

  let project m (f : fields) =
    {
      in_port = (if m.k_in_port then f.in_port else 0);
      eth_src = (if m.k_eth_src then f.eth_src else Mac.zero);
      eth_dst = (if m.k_eth_dst then f.eth_dst else Mac.zero);
      eth_type = (if m.k_eth_type then f.eth_type else 0);
      ip_src = trunc f.ip_src m.k_ip_src;
      ip_dst = trunc f.ip_dst m.k_ip_dst;
      ip_proto = (if m.k_ip_proto then f.ip_proto else 0);
      tp_src = (if m.k_tp_src then f.tp_src else 0);
      tp_dst = (if m.k_tp_dst then f.tp_dst else 0);
    }

  let pp fmt m =
    let b name v = if v then Format.fprintf fmt " %s" name in
    Format.pp_print_string fmt "mask{";
    b "in_port" m.k_in_port;
    b "eth_src" m.k_eth_src;
    b "eth_dst" m.k_eth_dst;
    b "eth_type" m.k_eth_type;
    if m.k_ip_src > 0 then Format.fprintf fmt " ip_src/%d" m.k_ip_src;
    if m.k_ip_dst > 0 then Format.fprintf fmt " ip_dst/%d" m.k_ip_dst;
    b "ip_proto" m.k_ip_proto;
    b "tp_src" m.k_tp_src;
    b "tp_dst" m.k_tp_dst;
    Format.pp_print_string fmt " }"
end

let mask_of t =
  {
    Mask.k_in_port = t.m_in_port <> None;
    k_eth_src = t.m_eth_src <> None;
    k_eth_dst = t.m_eth_dst <> None;
    k_eth_type = t.m_eth_type <> None;
    k_ip_src = (match t.m_ip_src with None -> 0 | Some p -> Prefix.length p);
    k_ip_dst = (match t.m_ip_dst with None -> 0 | Some p -> Prefix.length p);
    k_ip_proto = t.m_ip_proto <> None;
    k_tp_src = t.m_tp_src <> None;
    k_tp_dst = t.m_tp_dst <> None;
  }

let fields_of_match t =
  {
    in_port = Option.value t.m_in_port ~default:0;
    eth_src = Option.value t.m_eth_src ~default:Mac.zero;
    eth_dst = Option.value t.m_eth_dst ~default:Mac.zero;
    eth_type = Option.value t.m_eth_type ~default:0;
    ip_src = (match t.m_ip_src with None -> Ipv4.any | Some p -> Prefix.network p);
    ip_dst = (match t.m_ip_dst with None -> Ipv4.any | Some p -> Prefix.network p);
    ip_proto = Option.value t.m_ip_proto ~default:0;
    tp_src = Option.value t.m_tp_src ~default:0;
    tp_dst = Option.value t.m_tp_dst ~default:0;
  }

module Match_key = struct
  type nonrec t = Mask.t * fields

  let of_match m = (mask_of m, fields_of_match m)

  let equal ((ma, fa) : t) ((mb, fb) : t) =
    Mask.equal ma mb && fields_equal fa fb

  let hash ((m, f) : t) = Hashtbl.hash (Mask.hash m, hash_fields f)
end

let match_key = Match_key.of_match

let check_opt v = function None -> true | Some expected -> expected = v

let matches t f =
  check_opt f.in_port t.m_in_port
  && (match t.m_eth_src with None -> true | Some m -> Mac.equal m f.eth_src)
  && (match t.m_eth_dst with None -> true | Some m -> Mac.equal m f.eth_dst)
  && check_opt f.eth_type t.m_eth_type
  && (match t.m_ip_src with None -> true | Some p -> Prefix.mem f.ip_src p)
  && (match t.m_ip_dst with None -> true | Some p -> Prefix.mem f.ip_dst p)
  && check_opt f.ip_proto t.m_ip_proto
  && check_opt f.tp_src t.m_tp_src
  && check_opt f.tp_dst t.m_tp_dst

(* Two constraints on one field exclude each other only when both are
   present and name provably different values. Each helper answers
   "disjoint on this field?" — [is_exact_overlap] is the conjunction's
   negation, so a single provably-disjoint field settles the pair. *)
let disjoint_exact a b =
  match (a, b) with Some x, Some y -> x <> y | None, _ | _, None -> false

let disjoint_mac a b =
  match (a, b) with
  | Some x, Some y -> not (Mac.equal x y)
  | None, _ | _, None -> false

let disjoint_prefix a b =
  match (a, b) with
  | Some p, Some q -> not (Prefix.overlaps p q)
  | None, _ | _, None -> false

let is_exact_overlap a b =
  not
    (disjoint_exact a.m_in_port b.m_in_port
    || disjoint_mac a.m_eth_src b.m_eth_src
    || disjoint_mac a.m_eth_dst b.m_eth_dst
    || disjoint_exact a.m_eth_type b.m_eth_type
    || disjoint_prefix a.m_ip_src b.m_ip_src
    || disjoint_prefix a.m_ip_dst b.m_ip_dst
    || disjoint_exact a.m_ip_proto b.m_ip_proto
    || disjoint_exact a.m_tp_src b.m_tp_src
    || disjoint_exact a.m_tp_dst b.m_tp_dst)

(* --- ofp_match codec ----------------------------------------------- *)

let size = 40

(* OFPFW_* wildcard bits (OpenFlow 1.0). *)
let fw_in_port = 1 lsl 0
let fw_dl_vlan = 1 lsl 1
let fw_dl_src = 1 lsl 2
let fw_dl_dst = 1 lsl 3
let fw_dl_type = 1 lsl 4
let fw_nw_proto = 1 lsl 5
let fw_tp_src = 1 lsl 6
let fw_tp_dst = 1 lsl 7
let fw_nw_src_shift = 8
let fw_nw_dst_shift = 14
let fw_dl_vlan_pcp = 1 lsl 20
let fw_nw_tos = 1 lsl 21

let nw_wildcard_bits = function
  | None -> 32 (* fully wildcarded *)
  | Some p -> 32 - Prefix.length p

let write buf off t =
  let wildcards =
    (if t.m_in_port = None then fw_in_port else 0)
    lor fw_dl_vlan
    lor (if t.m_eth_src = None then fw_dl_src else 0)
    lor (if t.m_eth_dst = None then fw_dl_dst else 0)
    lor (if t.m_eth_type = None then fw_dl_type else 0)
    lor (if t.m_ip_proto = None then fw_nw_proto else 0)
    lor (if t.m_tp_src = None then fw_tp_src else 0)
    lor (if t.m_tp_dst = None then fw_tp_dst else 0)
    lor (nw_wildcard_bits t.m_ip_src lsl fw_nw_src_shift)
    lor (nw_wildcard_bits t.m_ip_dst lsl fw_nw_dst_shift)
    lor fw_dl_vlan_pcp lor fw_nw_tos
  in
  set_u32_int buf off wildcards;
  set_u16 buf (off + 4) (Option.value t.m_in_port ~default:0);
  set_mac buf (off + 6) (Option.value t.m_eth_src ~default:Mac.zero);
  set_mac buf (off + 12) (Option.value t.m_eth_dst ~default:Mac.zero);
  set_u16 buf (off + 18) 0xFFFF (* dl_vlan: none *);
  set_u8 buf (off + 20) 0 (* dl_vlan_pcp *);
  set_u8 buf (off + 21) 0 (* pad *);
  set_u16 buf (off + 22) (Option.value t.m_eth_type ~default:0);
  set_u8 buf (off + 24) 0 (* nw_tos *);
  set_u8 buf (off + 25) (Option.value t.m_ip_proto ~default:0);
  set_u16 buf (off + 26) 0 (* pad *);
  set_ipv4 buf (off + 28)
    (match t.m_ip_src with Some p -> Prefix.network p | None -> Ipv4.any);
  set_ipv4 buf (off + 32)
    (match t.m_ip_dst with Some p -> Prefix.network p | None -> Ipv4.any);
  set_u16 buf (off + 36) (Option.value t.m_tp_src ~default:0);
  set_u16 buf (off + 38) (Option.value t.m_tp_dst ~default:0)

let read buf off =
  let* wildcards = u32_int buf off in
  let has bit = wildcards land bit = 0 in
  let* in_port = u16 buf (off + 4) in
  let* eth_src = mac buf (off + 6) in
  let* eth_dst = mac buf (off + 12) in
  let* eth_type = u16 buf (off + 22) in
  let* ip_proto = u8 buf (off + 25) in
  let* ip_src = ipv4 buf (off + 28) in
  let* ip_dst = ipv4 buf (off + 32) in
  let* tp_src = u16 buf (off + 36) in
  let* tp_dst = u16 buf (off + 38) in
  let nw_prefix shift addr =
    let bits = (wildcards lsr shift) land 0x3F in
    if bits >= 32 then None else Some (Prefix.make addr (32 - bits))
  in
  Ok
    {
      m_in_port = (if has fw_in_port then Some in_port else None);
      m_eth_src = (if has fw_dl_src then Some eth_src else None);
      m_eth_dst = (if has fw_dl_dst then Some eth_dst else None);
      m_eth_type = (if has fw_dl_type then Some eth_type else None);
      m_ip_src = nw_prefix fw_nw_src_shift ip_src;
      m_ip_dst = nw_prefix fw_nw_dst_shift ip_dst;
      m_ip_proto = (if has fw_nw_proto then Some ip_proto else None);
      m_tp_src = (if has fw_tp_src then Some tp_src else None);
      m_tp_dst = (if has fw_tp_dst then Some tp_dst else None);
    }

let equal a b =
  a.m_in_port = b.m_in_port
  && Option.equal Mac.equal a.m_eth_src b.m_eth_src
  && Option.equal Mac.equal a.m_eth_dst b.m_eth_dst
  && a.m_eth_type = b.m_eth_type
  && Option.equal Prefix.equal a.m_ip_src b.m_ip_src
  && Option.equal Prefix.equal a.m_ip_dst b.m_ip_dst
  && a.m_ip_proto = b.m_ip_proto
  && a.m_tp_src = b.m_tp_src
  && a.m_tp_dst = b.m_tp_dst
