(* The decoder [Horse_bgp.Msg.decode] replaced: every read goes through
   a [Wire] reader that returns a [result], and attributes accumulate in
   a partial record copied once per attribute. It is kept as the oracle
   for the differential test of the direct decoder: both must accept the
   same inputs, build equal messages and report byte-equal errors. *)

open Horse_net
open Wire
open Horse_bgp.Msg

let read_prefix buf off limit =
  let* len = u8 buf off in
  if len > 32 then Error (Printf.sprintf "bgp: prefix length %d > 32" len)
  else
    let nbytes = (len + 7) / 8 in
    if off + 1 + nbytes > limit then Error "bgp: truncated prefix"
    else begin
      let addr = ref 0l in
      let rec go i acc =
        if i = nbytes then Ok acc
        else
          let* b = u8 buf (off + 1 + i) in
          go (i + 1) (Int32.logor acc (Int32.shift_left (Int32.of_int b) (24 - (8 * i))))
      in
      let* a = go 0 !addr in
      Ok (Prefix.make (Ipv4.of_int32 a) len, off + 1 + nbytes)
    end

let read_prefixes buf off limit =
  let rec go off acc =
    if off > limit then Error "bgp: prefix list overruns its length field"
    else if off = limit then Ok (List.rev acc)
    else
      let* p, off' = read_prefix buf off limit in
      go off' (p :: acc)
  in
  go off []

type partial_attrs = {
  p_origin : origin option;
  p_as_path : int list option;
  p_next_hop : Ipv4.t option;
  p_med : int option;
  p_local_pref : int option;
  p_communities : int list;
}

let empty_partial =
  {
    p_origin = None;
    p_as_path = None;
    p_next_hop = None;
    p_med = None;
    p_local_pref = None;
    p_communities = [];
  }

let read_as_path buf off len =
  if len = 0 then Ok []
  else
    let* seg_type = u8 buf off in
    if seg_type <> 2 then Error "bgp: only AS_SEQUENCE segments supported"
    else
      let* count = u8 buf (off + 1) in
      if 2 + (2 * count) <> len then Error "bgp: AS_PATH segment length mismatch"
      else
        let rec go i acc =
          if i = count then Ok (List.rev acc)
          else
            let* asn = u16 buf (off + 2 + (2 * i)) in
            go (i + 1) (asn :: acc)
        in
        go 0 []

let read_attrs buf off limit =
  let rec go off acc =
    if off > limit then Error "bgp: attributes overrun their length field"
    else if off = limit then Ok acc
    else
      let* flags = u8 buf off in
      let* type_ = u8 buf (off + 1) in
      let extended = flags land 0x10 <> 0 in
      let* len, val_off =
        if extended then
          let* l = u16 buf (off + 2) in
          Ok (l, off + 4)
        else
          let* l = u8 buf (off + 2) in
          Ok (l, off + 3)
      in
      if val_off + len > limit then Error "bgp: truncated attribute"
      else
        let* acc =
          match type_ with
          | 1 ->
              let* o = u8 buf val_off in
              let* origin = origin_of_int o in
              Ok { acc with p_origin = Some origin }
          | 2 ->
              let* path = read_as_path buf val_off len in
              Ok { acc with p_as_path = Some path }
          | 3 ->
              let* nh = ipv4 buf val_off in
              Ok { acc with p_next_hop = Some nh }
          | 4 ->
              let* m = u32_int buf val_off in
              Ok { acc with p_med = Some m }
          | 5 ->
              let* l = u32_int buf val_off in
              Ok { acc with p_local_pref = Some l }
          | 8 ->
              if len mod 4 <> 0 then Error "bgp: COMMUNITIES length not 4n"
              else
                let rec go i acc' =
                  if i = len / 4 then Ok (List.rev acc')
                  else
                    let* c = u32_int buf (val_off + (4 * i)) in
                    go (i + 1) (c :: acc')
                in
                let* cs = go 0 [] in
                Ok { acc with p_communities = cs }
          | _ ->
              (* Unknown attribute: skip (we never set partial bit). *)
              Ok acc
        in
        go (val_off + len) acc
  in
  let* partial = go off empty_partial in
  match (partial.p_origin, partial.p_as_path, partial.p_next_hop) with
  | Some origin, Some as_path, Some next_hop ->
      Ok
        (Some
           {
             origin;
             as_path;
             next_hop;
             med = partial.p_med;
             local_pref = partial.p_local_pref;
             communities = partial.p_communities;
           })
  | None, None, None -> Ok None
  | _, _, _ -> Error "bgp: missing mandatory attribute"

let decode buf =
  let* () = check buf 0 header_size in
  let marker_ok = ref true in
  for i = 0 to 15 do
    if Bytes.get buf i <> '\xff' then marker_ok := false
  done;
  if not !marker_ok then Error "bgp: bad marker"
  else
    let* len = u16 buf 16 in
    if len <> Bytes.length buf then Error "bgp: length field mismatch"
    else
      let* type_ = u8 buf 18 in
      let off = header_size in
      match type_ with
      | 4 -> if len = header_size then Ok Keepalive else Error "bgp: keepalive with body"
      | 3 ->
          let* code = u8 buf off in
          let* subcode = u8 buf (off + 1) in
          Ok (Notification { code; subcode })
      | 1 ->
          let* version = u8 buf off in
          if version <> 4 then Error (Printf.sprintf "bgp: version %d" version)
          else
            let* asn = u16 buf (off + 1) in
            let* hold_time_s = u16 buf (off + 3) in
            let* bgp_id = ipv4 buf (off + 5) in
            let* opt_len = u8 buf (off + 9) in
            if opt_len <> 0 then Error "bgp: optional parameters unsupported"
            else Ok (Open { asn; hold_time_s; bgp_id })
      | 2 ->
          let* wlen = u16 buf off in
          let wstart = off + 2 in
          let* withdrawn = read_prefixes buf wstart (wstart + wlen) in
          let* alen = u16 buf (wstart + wlen) in
          let astart = wstart + wlen + 2 in
          let* attrs = read_attrs buf astart (astart + alen) in
          let* nlri = read_prefixes buf (astart + alen) len in
          let* reach =
            match (attrs, nlri) with
            | Some a, _ -> Ok (Some (a, nlri))
            | None, [] -> Ok None
            | None, _ :: _ -> Error "bgp: NLRI without attributes"
          in
          Ok (Update { withdrawn; reach })
      | n -> Error (Printf.sprintf "bgp: unknown message type %d" n)
