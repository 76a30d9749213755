open Horse_net
open Wire

type origin = Igp | Egp | Incomplete

let origin_to_int = function Igp -> 0 | Egp -> 1 | Incomplete -> 2

let origin_of_int = function
  | 0 -> Ok Igp
  | 1 -> Ok Egp
  | 2 -> Ok Incomplete
  | n -> Error (Printf.sprintf "bgp: bad origin %d" n)

type attrs = {
  origin : origin;
  as_path : int list;
  next_hop : Ipv4.t;
  med : int option;
  local_pref : int option;
  communities : int list;
}

let community ~asn v =
  if asn < 0 || asn > 0xFFFF || v < 0 || v > 0xFFFF then
    invalid_arg "Bgp.Msg.community: halves must fit 16 bits";
  (asn lsl 16) lor v

let attrs_equal a b =
  a.origin = b.origin
  && List.equal Int.equal a.as_path b.as_path
  && Ipv4.equal a.next_hop b.next_hop
  && Option.equal Int.equal a.med b.med
  && Option.equal Int.equal a.local_pref b.local_pref
  && List.equal Int.equal a.communities b.communities

(* One multiply–xorshift step per field: [h * 31 + x] lets
   different records, such as AS paths that trade one hop for
   another, share a hash. *)
let mix h x =
  let h = (h lxor x) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* Elements are mixed in as [x + 1] and the list ends with a 0, so a
   list's length and where it ends both reach the hash. *)
let hash_int_list seed l =
  mix (List.fold_left (fun h x -> mix h (x + 1)) seed l) 0

let attrs_hash a =
  let h = mix 0 (origin_to_int a.origin) in
  let h = mix h (Ipv4.hash a.next_hop) in
  let h = mix h (Option.value a.med ~default:(-7)) in
  let h = mix h (Option.value a.local_pref ~default:(-13)) in
  let h = hash_int_list h a.as_path in
  let h = hash_int_list h a.communities in
  h land max_int

type open_msg = { asn : int; hold_time_s : int; bgp_id : Ipv4.t }

type update = { withdrawn : Prefix.t list; reach : (attrs * Prefix.t list) option }

type t =
  | Open of open_msg
  | Update of update
  | Keepalive
  | Notification of { code : int; subcode : int }

let header_size = 19

(* --- encoding ------------------------------------------------------ *)

let check_u16 what v =
  if v < 0 || v > 0xFFFF then
    invalid_arg (Printf.sprintf "Bgp.Msg.encode: %s %d out of 16-bit range" what v)

let prefix_wire_size p = 1 + ((Prefix.length p + 7) / 8)

let write_prefix buf off p =
  let len = Prefix.length p in
  set_u8 buf off len;
  let nbytes = (len + 7) / 8 in
  let addr = Ipv4.to_int32 (Prefix.network p) in
  for i = 0 to nbytes - 1 do
    set_u8 buf (off + 1 + i)
      (Int32.to_int (Int32.shift_right_logical addr (24 - (8 * i))) land 0xFF)
  done;
  off + 1 + nbytes

let attr_flags_transitive = 0x40
let attr_flags_optional = 0x80

let attrs_wire_size a =
  let as_path_len = List.length a.as_path in
  3 + 1 (* origin *)
  + 3 + (if as_path_len = 0 then 0 else 2 + (2 * as_path_len))
  + 3 + 4 (* next hop *)
  + (match a.med with Some _ -> 3 + 4 | None -> 0)
  + (match a.local_pref with Some _ -> 3 + 4 | None -> 0)
  + match a.communities with [] -> 0 | cs -> 3 + (4 * List.length cs)

let write_attrs buf off a =
  if List.length a.as_path > 255 then
    invalid_arg "Bgp.Msg.encode: AS_PATH longer than 255";
  List.iter (fun asn -> check_u16 "ASN" asn) a.as_path;
  let off = ref off in
  let attr type_ flags payload_len writer =
    set_u8 buf !off flags;
    set_u8 buf (!off + 1) type_;
    set_u8 buf (!off + 2) payload_len;
    writer (!off + 3);
    off := !off + 3 + payload_len
  in
  attr 1 attr_flags_transitive 1 (fun o -> set_u8 buf o (origin_to_int a.origin));
  let as_path_len = List.length a.as_path in
  let seg_len = if as_path_len = 0 then 0 else 2 + (2 * as_path_len) in
  attr 2 attr_flags_transitive seg_len (fun o ->
      if as_path_len > 0 then begin
        set_u8 buf o 2 (* AS_SEQUENCE *);
        set_u8 buf (o + 1) as_path_len;
        List.iteri (fun i asn -> set_u16 buf (o + 2 + (2 * i)) asn) a.as_path
      end);
  attr 3 attr_flags_transitive 4 (fun o -> set_ipv4 buf o a.next_hop);
  (match a.med with
  | Some m -> attr 4 attr_flags_optional 4 (fun o -> set_u32_int buf o m)
  | None -> ());
  (match a.local_pref with
  | Some l -> attr 5 attr_flags_transitive 4 (fun o -> set_u32_int buf o l)
  | None -> ());
  (match a.communities with
  | [] -> ()
  | cs ->
      if List.length cs > 63 then
        invalid_arg "Bgp.Msg.encode: more than 63 communities";
      attr 8
        (attr_flags_optional lor attr_flags_transitive)
        (4 * List.length cs)
        (fun o -> List.iteri (fun i c -> set_u32_int buf (o + (4 * i)) c) cs));
  !off

let body_size = function
  | Open _ -> 10
  | Keepalive -> 0
  | Notification _ -> 2
  | Update u ->
      let withdrawn = List.fold_left (fun acc p -> acc + prefix_wire_size p) 0 u.withdrawn in
      let reach =
        match u.reach with
        | None -> 0
        | Some (attrs, nlri) ->
            attrs_wire_size attrs
            + List.fold_left (fun acc p -> acc + prefix_wire_size p) 0 nlri
      in
      2 + withdrawn + 2 + reach

let type_code = function
  | Open _ -> 1
  | Update _ -> 2
  | Notification _ -> 3
  | Keepalive -> 4

let encode t =
  let len = header_size + body_size t in
  check_u16 "message length" len;
  let buf = Bytes.make len '\000' in
  Bytes.fill buf 0 16 '\xff';
  set_u16 buf 16 len;
  set_u8 buf 18 (type_code t);
  let off = header_size in
  (match t with
  | Keepalive -> ()
  | Notification { code; subcode } ->
      set_u8 buf off code;
      set_u8 buf (off + 1) subcode
  | Open o ->
      check_u16 "ASN" o.asn;
      check_u16 "hold time" o.hold_time_s;
      set_u8 buf off 4 (* version *);
      set_u16 buf (off + 1) o.asn;
      set_u16 buf (off + 3) o.hold_time_s;
      set_ipv4 buf (off + 5) o.bgp_id;
      set_u8 buf (off + 9) 0 (* no optional parameters *)
  | Update u ->
      let wlen =
        List.fold_left (fun acc p -> acc + prefix_wire_size p) 0 u.withdrawn
      in
      set_u16 buf off wlen;
      let o = ref (off + 2) in
      List.iter (fun p -> o := write_prefix buf !o p) u.withdrawn;
      let attr_len_pos = !o in
      o := !o + 2;
      (match u.reach with
      | None -> set_u16 buf attr_len_pos 0
      | Some (attrs, nlri) ->
          let attrs_end = write_attrs buf !o attrs in
          set_u16 buf attr_len_pos (attrs_end - !o);
          o := attrs_end;
          List.iter (fun p -> o := write_prefix buf !o p) nlri));
  buf

(* --- decoding ------------------------------------------------------ *)

(* The decoder reads the buffer in place and raises [Malformed] at the
   first bad field; only [decode] builds a [result]. Each read checks
   its bounds first, and a short read names the same byte range, in
   the same order, as a field-by-field [Wire] reader. *)
exception Malformed of string

let malformed msg = raise_notrace (Malformed msg)

let short buf off n =
  malformed
    (Printf.sprintf "short buffer: need [%d,%d) but length is %d" off (off + n)
       (Bytes.length buf))

let get_u8 buf off =
  if off + 1 > Bytes.length buf then short buf off 1
  else Bytes.get_uint8 buf off

let get_u16 buf off =
  if off + 2 > Bytes.length buf then short buf off 2
  else Bytes.get_uint16_be buf off

let get_u32 buf off =
  if off + 4 > Bytes.length buf then short buf off 4
  else Int32.to_int (Bytes.get_int32_be buf off) land 0xFFFF_FFFF

let read_prefix buf off limit =
  let len = get_u8 buf off in
  if len > 32 then malformed (Printf.sprintf "bgp: prefix length %d > 32" len);
  let nbytes = (len + 7) / 8 in
  if off + 1 + nbytes > limit then malformed "bgp: truncated prefix";
  (* [off] is in the buffer, so the first byte missing is its end. *)
  if off + 1 + nbytes > Bytes.length buf then short buf (Bytes.length buf) 1;
  let addr = ref 0 in
  for i = 0 to nbytes - 1 do
    addr := !addr lor (Bytes.get_uint8 buf (off + 1 + i) lsl (24 - (8 * i)))
  done;
  Prefix.make (Ipv4.of_int32 (Int32.of_int !addr)) len

let[@tail_mod_cons] rec read_prefixes buf off limit =
  if off > limit then
    raise_notrace (Malformed "bgp: prefix list overruns its length field")
  else if off = limit then []
  else
    let p = read_prefix buf off limit in
    p :: read_prefixes buf (off + prefix_wire_size p) limit

(* [count] big-endian fields of [width] (2 or 4) bytes from [off]. A
   short buffer fails at the first field that does not fit; the list is
   then built back to front without a reversal. *)
let read_fields buf off count width =
  let n = Bytes.length buf in
  if count > 0 && off + (count * width) > n then
    short buf (off + (max 0 ((n - off) / width) * width)) width;
  let rec go i acc =
    if i < 0 then acc
    else
      let o = off + (i * width) in
      let v =
        if width = 2 then Bytes.get_uint16_be buf o
        else Int32.to_int (Bytes.get_int32_be buf o) land 0xFFFF_FFFF
      in
      go (i - 1) (v :: acc)
  in
  go (count - 1) []

let read_as_path buf off len =
  if len = 0 then []
  else begin
    if get_u8 buf off <> 2 then
      malformed "bgp: only AS_SEQUENCE segments supported";
    let count = get_u8 buf (off + 1) in
    if 2 + (2 * count) <> len then malformed "bgp: AS_PATH segment length mismatch";
    read_fields buf (off + 2) count 2
  end

(* Each attribute lands in a local slot (a repeated one overwrites the
   earlier value) and the record is built once, at the end. The u32
   slots hold -1 while absent. [origin_of_int]'s [Ok] values are
   constants, so reading ORIGIN allocates nothing. *)
let read_attrs buf off limit =
  let origin = ref Igp and has_origin = ref false in
  let as_path = ref [] and has_path = ref false in
  let next_hop = ref (-1) and med = ref (-1) and local_pref = ref (-1) in
  let communities = ref [] in
  let off = ref off in
  while !off < limit do
    let o = !off in
    let flags = get_u8 buf o in
    let type_ = get_u8 buf (o + 1) in
    let extended = flags land 0x10 <> 0 in
    let len = if extended then get_u16 buf (o + 2) else get_u8 buf (o + 2) in
    let v = if extended then o + 4 else o + 3 in
    if v + len > limit then malformed "bgp: truncated attribute";
    (match type_ with
    | 1 -> (
        match origin_of_int (get_u8 buf v) with
        | Ok o ->
            origin := o;
            has_origin := true
        | Error e -> malformed e)
    | 2 ->
        as_path := read_as_path buf v len;
        has_path := true
    | 3 -> next_hop := get_u32 buf v
    | 4 -> med := get_u32 buf v
    | 5 -> local_pref := get_u32 buf v
    | 8 ->
        if len mod 4 <> 0 then malformed "bgp: COMMUNITIES length not 4n";
        communities := read_fields buf v (len / 4) 4
    | _ -> (* Unknown attribute: skip (we never set partial bit). *) ());
    off := v + len
  done;
  if !off > limit then malformed "bgp: attributes overrun their length field";
  match (!has_origin, !has_path, !next_hop >= 0) with
  | true, true, true ->
      let opt v = if v < 0 then None else Some v in
      Some
        {
          origin = !origin;
          as_path = !as_path;
          next_hop = Ipv4.of_int32 (Int32.of_int !next_hop);
          med = opt !med;
          local_pref = opt !local_pref;
          communities = !communities;
        }
  | false, false, false -> None
  | _, _, _ -> malformed "bgp: missing mandatory attribute"

let decode_exn buf =
  let n = Bytes.length buf in
  if n < header_size then short buf 0 header_size;
  for i = 0 to 15 do
    if Bytes.get buf i <> '\xff' then malformed "bgp: bad marker"
  done;
  let len = Bytes.get_uint16_be buf 16 in
  if len <> n then malformed "bgp: length field mismatch";
  let off = header_size in
  match Bytes.get_uint8 buf 18 with
  | 4 ->
      if len = header_size then Keepalive
      else malformed "bgp: keepalive with body"
  | 3 ->
      let code = get_u8 buf off in
      let subcode = get_u8 buf (off + 1) in
      Notification { code; subcode }
  | 1 ->
      let version = get_u8 buf off in
      if version <> 4 then malformed (Printf.sprintf "bgp: version %d" version);
      let asn = get_u16 buf (off + 1) in
      let hold_time_s = get_u16 buf (off + 3) in
      let bgp_id = Ipv4.of_int32 (Int32.of_int (get_u32 buf (off + 5))) in
      if get_u8 buf (off + 9) <> 0 then
        malformed "bgp: optional parameters unsupported";
      Open { asn; hold_time_s; bgp_id }
  | 2 ->
      let wlen = get_u16 buf off in
      let wstart = off + 2 in
      let withdrawn = read_prefixes buf wstart (wstart + wlen) in
      let alen = get_u16 buf (wstart + wlen) in
      let astart = wstart + wlen + 2 in
      let attrs = read_attrs buf astart (astart + alen) in
      let nlri = read_prefixes buf (astart + alen) len in
      let reach =
        match (attrs, nlri) with
        | Some a, _ -> Some (a, nlri)
        | None, [] -> None
        | None, _ :: _ -> malformed "bgp: NLRI without attributes"
      in
      Update { withdrawn; reach }
  | t -> malformed (Printf.sprintf "bgp: unknown message type %d" t)

let decode buf =
  match decode_exn buf with m -> Ok m | exception Malformed e -> Error e

(* --- packed encoding ----------------------------------------------- *)

let max_message_size = 4096

type packed = { bytes : Bytes.t; announced : int; withdrawn : int }

module Packer = struct
  type t = { scratch : Bytes.t; mutable attrs_scratch : Bytes.t }

  let create () =
    {
      scratch = Bytes.create max_message_size;
      attrs_scratch = Bytes.create 1024;
    }

  (* Serialize the group's shared attributes once; every emitted
     message blits this slice instead of re-walking the attr lists. *)
  let prepare_attrs t attrs =
    let size = attrs_wire_size attrs in
    if Bytes.length t.attrs_scratch < size then
      t.attrs_scratch <- Bytes.create (2 * size);
    let end_ = write_attrs t.attrs_scratch 0 attrs in
    if end_ <> size then failwith "Bgp.Msg.Packer: attrs size mismatch";
    size

  (* Take prefixes from [ps] while their wire size fits in [room]. *)
  let take room ps =
    let rec go acc n used = function
      | p :: rest when used + prefix_wire_size p <= room ->
          go (p :: acc) (n + 1) (used + prefix_wire_size p) rest
      | rest -> (acc, n, used, rest)
    in
    go [] 0 0 ps

  let pack t ?(withdrawn = []) ?reach () =
    let attrs, nlri =
      match reach with
      | Some (a, (_ :: _ as nlri)) -> (Some a, nlri)
      | Some (_, []) | None -> (None, [])
    in
    let asize = match attrs with Some a -> prepare_attrs t a | None -> 0 in
    let budget = max_message_size - header_size - 4 in
    let msgs = ref [] in
    let emit ~withdrawn_rev ~n_w ~w_bytes ~nlri_rev ~n_n ~n_bytes =
      let len =
        header_size + 4 + w_bytes + (if n_n > 0 then asize else 0) + n_bytes
      in
      let buf = t.scratch in
      Bytes.fill buf 0 16 '\xff';
      set_u16 buf 16 len;
      set_u8 buf 18 2 (* UPDATE *);
      set_u16 buf header_size w_bytes;
      let o = ref (header_size + 2) in
      List.iter (fun p -> o := write_prefix buf !o p) (List.rev withdrawn_rev);
      if n_n > 0 then begin
        set_u16 buf !o asize;
        Bytes.blit t.attrs_scratch 0 buf (!o + 2) asize;
        o := !o + 2 + asize;
        List.iter (fun p -> o := write_prefix buf !o p) (List.rev nlri_rev)
      end
      else begin
        set_u16 buf !o 0;
        o := !o + 2
      end;
      msgs :=
        { bytes = Bytes.sub buf 0 len; announced = n_n; withdrawn = n_w }
        :: !msgs
    in
    let rec go withdrawn nlri =
      match (withdrawn, nlri) with
      | [], [] -> ()
      | _ ->
          let w_rev, n_w, w_bytes, w_rest = take budget withdrawn in
          (* NLRI rides along only once every withdrawal has been
             placed (coalesced into the leading messages). *)
          let n_rev, n_n, n_bytes, n_rest =
            if w_rest = [] then take (budget - w_bytes - asize) nlri
            else ([], 0, 0, nlri)
          in
          emit ~withdrawn_rev:w_rev ~n_w ~w_bytes ~nlri_rev:n_rev ~n_n ~n_bytes;
          go w_rest n_rest
    in
    go withdrawn nlri;
    List.rev !msgs
end

let equal a b =
  match (a, b) with
  | Keepalive, Keepalive -> true
  | Notification x, Notification y -> x.code = y.code && x.subcode = y.subcode
  | Open x, Open y ->
      x.asn = y.asn && x.hold_time_s = y.hold_time_s && Ipv4.equal x.bgp_id y.bgp_id
  | Update x, Update y ->
      List.equal Prefix.equal x.withdrawn y.withdrawn
      && Option.equal
           (fun (aa, an) (ba, bn) ->
             attrs_equal aa ba && List.equal Prefix.equal an bn)
           x.reach y.reach
  | (Keepalive | Notification _ | Open _ | Update _), _ -> false
