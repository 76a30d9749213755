open Horse_net
open Wire

type lsa_link =
  | Point_to_point of { neighbor : Ipv4.t; metric : int }
  | Stub of { prefix : Prefix.t; metric : int }

type lsa = { adv_router : Ipv4.t; seq : int; links : lsa_link list }

let lsa_link_equal a b =
  match (a, b) with
  | Point_to_point x, Point_to_point y ->
      Ipv4.equal x.neighbor y.neighbor && x.metric = y.metric
  | Stub x, Stub y -> Prefix.equal x.prefix y.prefix && x.metric = y.metric
  | (Point_to_point _ | Stub _), _ -> false

let lsa_equal a b =
  Ipv4.equal a.adv_router b.adv_router
  && a.seq = b.seq
  && List.equal lsa_link_equal a.links b.links

type hello = {
  hello_interval_s : int;
  dead_interval_s : int;
  neighbors : Ipv4.t list;
}

type t =
  | Hello of hello
  | Ls_update of lsa list
  | Ls_ack of (Ipv4.t * int) list

let header_size = 24
let lsa_header_size = 20
let link_size = 12

let type_code = function Hello _ -> 1 | Ls_update _ -> 4 | Ls_ack _ -> 5

let lsa_size l = lsa_header_size + 4 + (link_size * List.length l.links)

let body_size = function
  | Hello h -> 16 + (4 * List.length h.neighbors)
  | Ls_update lsas -> 4 + List.fold_left (fun acc l -> acc + lsa_size l) 0 lsas
  | Ls_ack acks -> lsa_header_size * List.length acks

let write_lsa buf off l =
  if List.length l.links > 0xFFFF then invalid_arg "Ospf_msg: too many links";
  set_u16 buf off 0 (* age *);
  set_u8 buf (off + 2) 0 (* options *);
  set_u8 buf (off + 3) 1 (* router-LSA *);
  set_ipv4 buf (off + 4) l.adv_router (* ls id *);
  set_ipv4 buf (off + 8) l.adv_router;
  set_u32_int buf (off + 12) l.seq;
  set_u16 buf (off + 16) 0 (* lsa checksum: covered by packet checksum *);
  set_u16 buf (off + 18) (lsa_size l);
  set_u16 buf (off + 20) 0 (* flags *);
  set_u16 buf (off + 22) (List.length l.links);
  let o = ref (off + 24) in
  List.iter
    (fun link ->
      (match link with
      | Point_to_point { neighbor; metric } ->
          set_ipv4 buf !o neighbor;
          set_u32_int buf (!o + 4) 0;
          set_u8 buf (!o + 8) 1;
          set_u8 buf (!o + 9) 0;
          set_u16 buf (!o + 10) metric
      | Stub { prefix; metric } ->
          set_ipv4 buf !o (Prefix.network prefix);
          set_ipv4 buf (!o + 4) (Prefix.netmask prefix);
          set_u8 buf (!o + 8) 3;
          set_u8 buf (!o + 9) 0;
          set_u16 buf (!o + 10) metric);
      o := !o + link_size)
    l.links;
  !o

let read_lsa buf off =
  let* adv_router = ipv4 buf (off + 8) in
  let* seq = u32_int buf (off + 12) in
  let* total = u16 buf (off + 18) in
  let* nlinks = u16 buf (off + 22) in
  if total <> lsa_header_size + 4 + (link_size * nlinks) then
    Error "ospf: LSA length inconsistent with link count"
  else
    let rec go i acc =
      if i = nlinks then Ok (List.rev acc)
      else
        let o = off + 24 + (i * link_size) in
        let* link_id = ipv4 buf o in
        let* link_data = ipv4 buf (o + 4) in
        let* kind = u8 buf (o + 8) in
        let* metric = u16 buf (o + 10) in
        let* link =
          match kind with
          | 1 -> Ok (Point_to_point { neighbor = link_id; metric })
          | 3 ->
              (* Recover the prefix length from the mask. *)
              let mask = Ipv4.to_int32 link_data in
              let rec len_of bits n =
                if n = 32 then 32
                else if Int32.logand bits (Int32.shift_left 1l (31 - n)) = 0l
                then n
                else len_of bits (n + 1)
              in
              Ok (Stub { prefix = Prefix.make link_id (len_of mask 0); metric })
          | n -> Error (Printf.sprintf "ospf: link type %d unsupported" n)
        in
        go (i + 1) (link :: acc)
    in
    let* links = go 0 [] in
    Ok ({ adv_router; seq; links }, off + total)

let encode ~router_id t =
  let len = header_size + body_size t in
  let buf = Bytes.make len '\000' in
  set_u8 buf 0 2 (* version *);
  set_u8 buf 1 (type_code t);
  set_u16 buf 2 len;
  set_ipv4 buf 4 router_id;
  set_u32_int buf 8 0 (* area 0 *);
  set_u16 buf 12 0 (* checksum placeholder *);
  (* autype + auth already zero *)
  let off = header_size in
  (match t with
  | Hello h ->
      set_u32_int buf off 0 (* network mask *);
      set_u16 buf (off + 4) h.hello_interval_s;
      set_u8 buf (off + 6) 0 (* options *);
      set_u8 buf (off + 7) 0 (* priority *);
      set_u32_int buf (off + 8) h.dead_interval_s;
      (* dr + bdr zero at off+12? layout: mask(4) hello(2) opt(1)
         prio(1) dead(4) dr(4) bdr(4) = 16, then neighbors — but we
         packed dr/bdr into the 16 bytes: mask 4 + 2 + 1 + 1 + 4 = 12;
         remaining 4 bytes are the DR; BDR dropped to keep the body at
         16 bytes. *)
      List.iteri
        (fun i n -> set_ipv4 buf (off + 16 + (4 * i)) n)
        h.neighbors
  | Ls_update lsas ->
      set_u32_int buf off (List.length lsas);
      let o = ref (off + 4) in
      List.iter (fun l -> o := write_lsa buf !o l) lsas
  | Ls_ack acks ->
      List.iteri
        (fun i (adv, seq) ->
          let o = off + (i * lsa_header_size) in
          set_u8 buf (o + 3) 1;
          set_ipv4 buf (o + 4) adv;
          set_ipv4 buf (o + 8) adv;
          set_u32_int buf (o + 12) seq;
          set_u16 buf (o + 18) lsa_header_size)
        acks);
  set_u16 buf 12 (Checksum.of_bytes buf 0 len);
  buf

let decode buf =
  let* version = u8 buf 0 in
  if version <> 2 then Error (Printf.sprintf "ospf: version %d" version)
  else
    let* len = u16 buf 2 in
    if len <> Bytes.length buf then Error "ospf: length field mismatch"
    else if not (Checksum.verify buf 0 len) then Error "ospf: bad checksum"
    else
      let* type_ = u8 buf 1 in
      let* router_id = ipv4 buf 4 in
      let off = header_size in
      let* msg =
        match type_ with
        | 1 ->
            let* hello_interval_s = u16 buf (off + 4) in
            let* dead_interval_s = u32_int buf (off + 8) in
            let n_neighbors = (len - off - 16) / 4 in
            let rec go i acc =
              if i = n_neighbors then Ok (List.rev acc)
              else
                let* n = ipv4 buf (off + 16 + (4 * i)) in
                go (i + 1) (n :: acc)
            in
            let* neighbors = go 0 [] in
            Ok (Hello { hello_interval_s; dead_interval_s; neighbors })
        | 4 ->
            let* n = u32_int buf off in
            let rec go i o acc =
              if i = n then Ok (List.rev acc)
              else
                let* lsa, o' = read_lsa buf o in
                go (i + 1) o' (lsa :: acc)
            in
            let* lsas = go 0 (off + 4) [] in
            Ok (Ls_update lsas)
        | 5 ->
            let n = (len - off) / lsa_header_size in
            let rec go i acc =
              if i = n then Ok (List.rev acc)
              else
                let o = off + (i * lsa_header_size) in
                let* adv = ipv4 buf (o + 4) in
                let* seq = u32_int buf (o + 12) in
                go (i + 1) ((adv, seq) :: acc)
            in
            let* acks = go 0 [] in
            Ok (Ls_ack acks)
        | n -> Error (Printf.sprintf "ospf: packet type %d unsupported" n)
      in
      Ok (router_id, msg)

let equal a b =
  match (a, b) with
  | Hello x, Hello y ->
      x.hello_interval_s = y.hello_interval_s
      && x.dead_interval_s = y.dead_interval_s
      && List.equal Ipv4.equal x.neighbors y.neighbors
  | Ls_update x, Ls_update y -> List.equal lsa_equal x y
  | Ls_ack x, Ls_ack y ->
      List.equal (fun (a, s) (b, s') -> Ipv4.equal a b && s = s') x y
  | (Hello _ | Ls_update _ | Ls_ack _), _ -> false
