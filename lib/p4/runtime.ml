open Horse_net.Wire

type request =
  | Hello
  | Insert of Interp.entry
  | Delete of { d_table : string; d_key : Interp.key_match list }
  | Counter_read of string

type response =
  | Ack
  | Nack of string
  | Counter_value of string * int

(* Wire helpers: strings are u16-length-prefixed; ints are 8 bytes
   big-endian (values fit 62 bits). *)

let string_size s = 2 + String.length s

let write_string buf off s =
  set_u16 buf off (String.length s);
  Bytes.blit_string s 0 buf (off + 2) (String.length s);
  off + string_size s

let read_string buf off =
  let* len = u16 buf off in
  let* b = bytes len buf (off + 2) in
  Ok (Bytes.to_string b, off + 2 + len)

let set_u62 buf off v =
  set_u32_int buf off (v lsr 31);
  set_u32_int buf (off + 4) (v land 0x7FFFFFFF)

let u62 buf off =
  let* hi = u32_int buf off in
  let* lo = u32_int buf (off + 4) in
  Ok ((hi lsl 31) lor lo)

let key_size = 17 (* kind byte + two u62 *)

let write_key buf off k =
  (match (k : Interp.key_match) with
  | Interp.K_exact v ->
      set_u8 buf off 0;
      set_u62 buf (off + 1) v;
      set_u62 buf (off + 9) 0
  | Interp.K_lpm (v, len) ->
      set_u8 buf off 1;
      set_u62 buf (off + 1) v;
      set_u62 buf (off + 9) len
  | Interp.K_ternary (v, m) ->
      set_u8 buf off 2;
      set_u62 buf (off + 1) v;
      set_u62 buf (off + 9) m);
  off + key_size

let read_key buf off =
  let* kind = u8 buf off in
  let* a = u62 buf (off + 1) in
  let* b = u62 buf (off + 9) in
  let* k =
    match kind with
    | 0 -> Ok (Interp.K_exact a)
    | 1 -> Ok (Interp.K_lpm (a, b))
    | 2 -> Ok (Interp.K_ternary (a, b))
    | n -> Error (Printf.sprintf "p4runtime: key kind %d" n)
  in
  Ok (k, off + key_size)

let write_key_list buf off keys =
  set_u16 buf off (List.length keys);
  List.fold_left (fun off k -> write_key buf off k) (off + 2) keys

let read_key_list buf off =
  let* n = u16 buf off in
  let rec go i off acc =
    if i = n then Ok (List.rev acc, off)
    else
      let* k, off' = read_key buf off in
      go (i + 1) off' (k :: acc)
  in
  go 0 (off + 2) []

(* Header: magic 'P4' (2), type (1), xid (4). *)
let header_size = 7

let frame type_ xid body_size writer =
  let buf = Bytes.make (header_size + body_size) '\000' in
  set_u8 buf 0 (Char.code 'P');
  set_u8 buf 1 (Char.code '4');
  set_u8 buf 2 type_;
  set_u32_int buf 3 xid;
  writer buf header_size;
  buf

let check_header buf =
  let* m0 = u8 buf 0 in
  let* m1 = u8 buf 1 in
  if m0 <> Char.code 'P' || m1 <> Char.code '4' then Error "p4runtime: bad magic"
  else
    let* type_ = u8 buf 2 in
    let* xid = u32_int buf 3 in
    Ok (type_, xid)

let encode_request ~xid = function
  | Hello -> frame 0 xid 0 (fun _ _ -> ())
  | Insert e ->
      let size =
        string_size e.Interp.e_table
        + 2
        + (key_size * List.length e.Interp.key)
        + 4 (* priority *)
        + string_size e.Interp.action
        + 2
        + (8 * List.length e.Interp.args)
      in
      frame 1 xid size (fun buf off ->
          let off = write_string buf off e.Interp.e_table in
          let off = write_key_list buf off e.Interp.key in
          set_u32_int buf off e.Interp.priority;
          let off = write_string buf (off + 4) e.Interp.action in
          set_u16 buf off (List.length e.Interp.args);
          ignore
            (List.fold_left
               (fun off a ->
                 set_u62 buf off a;
                 off + 8)
               (off + 2) e.Interp.args))
  | Delete { d_table; d_key } ->
      let size = string_size d_table + 2 + (key_size * List.length d_key) in
      frame 2 xid size (fun buf off ->
          let off = write_string buf off d_table in
          ignore (write_key_list buf off d_key))
  | Counter_read c ->
      frame 3 xid (string_size c) (fun buf off -> ignore (write_string buf off c))

let decode_request buf =
  let* type_, xid = check_header buf in
  let off = header_size in
  let* req =
    match type_ with
    | 0 -> Ok Hello
    | 1 ->
        let* e_table, off = read_string buf off in
        let* key, off = read_key_list buf off in
        let* priority = u32_int buf off in
        let* action, off = read_string buf (off + 4) in
        let* n_args = u16 buf off in
        let rec go i off acc =
          if i = n_args then Ok (List.rev acc)
          else
            let* a = u62 buf off in
            go (i + 1) (off + 8) (a :: acc)
        in
        let* args = go 0 (off + 2) [] in
        Ok (Insert { Interp.e_table; key; priority; action; args })
    | 2 ->
        let* d_table, off = read_string buf off in
        let* d_key, _ = read_key_list buf off in
        Ok (Delete { d_table; d_key })
    | 3 ->
        let* c, _ = read_string buf off in
        Ok (Counter_read c)
    | n -> Error (Printf.sprintf "p4runtime: request type %d" n)
  in
  Ok (xid, req)

let encode_response ~xid = function
  | Ack -> frame 16 xid 0 (fun _ _ -> ())
  | Nack msg ->
      frame 17 xid (string_size msg) (fun buf off ->
          ignore (write_string buf off msg))
  | Counter_value (c, v) ->
      frame 18 xid
        (string_size c + 8)
        (fun buf off ->
          let off = write_string buf off c in
          set_u62 buf off v)

let decode_response buf =
  let* type_, xid = check_header buf in
  let off = header_size in
  let* resp =
    match type_ with
    | 16 -> Ok Ack
    | 17 ->
        let* msg, _ = read_string buf off in
        Ok (Nack msg)
    | 18 ->
        let* c, off = read_string buf off in
        let* v = u62 buf off in
        Ok (Counter_value (c, v))
    | n -> Error (Printf.sprintf "p4runtime: response type %d" n)
  in
  Ok (xid, resp)

let request_equal a b =
  match (a, b) with
  | Hello, Hello -> true
  | Insert x, Insert y ->
      String.equal x.Interp.e_table y.Interp.e_table
      && Interp.entry_key_equal x.Interp.key y.Interp.key
      && x.Interp.priority = y.Interp.priority
      && String.equal x.Interp.action y.Interp.action
      && List.equal Int.equal x.Interp.args y.Interp.args
  | Delete x, Delete y ->
      String.equal x.d_table y.d_table && Interp.entry_key_equal x.d_key y.d_key
  | Counter_read x, Counter_read y -> String.equal x y
  | (Hello | Insert _ | Delete _ | Counter_read _), _ -> false

let response_equal a b =
  match (a, b) with
  | Ack, Ack -> true
  | Nack x, Nack y -> String.equal x y
  | Counter_value (c, v), Counter_value (c', v') -> String.equal c c' && v = v'
  | (Ack | Nack _ | Counter_value _), _ -> false
