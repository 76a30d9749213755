open Horse_net.Wire

type flow_mod_command = Add | Modify | Delete

type flow_mod = {
  match_ : Ofmatch.t;
  cookie : int;
  command : flow_mod_command;
  idle_timeout_s : int;
  hard_timeout_s : int;
  priority : int;
  actions : Action.t list;
}

type packet_in = {
  buffer_id : int;
  total_len : int;
  in_port : int;
  reason : int;
  data : Bytes.t;
}

type packet_out = { po_in_port : int; po_actions : Action.t list; po_data : Bytes.t }

type flow_stats = {
  fs_match : Ofmatch.t;
  fs_priority : int;
  fs_cookie : int;
  fs_packets : int;
  fs_bytes : int;
  fs_duration_s : int;
  fs_actions : Action.t list;
}

type port_stats = {
  ps_port : int;
  ps_rx_packets : int;
  ps_tx_packets : int;
  ps_rx_bytes : int;
  ps_tx_bytes : int;
}

type stats_request = Flow_stats_req of Ofmatch.t | Port_stats_req of int

type stats_reply = Flow_stats_rep of flow_stats list | Port_stats_rep of port_stats list

type port_status = { pst_reason : int; pst_port : int }

type t =
  | Hello
  | Echo_request
  | Echo_reply
  | Features_request
  | Features_reply of { dpid : int; n_ports : int }
  | Packet_in of packet_in
  | Packet_out of packet_out
  | Flow_mod of flow_mod
  | Port_status of port_status
  | Stats_request of stats_request
  | Stats_reply of stats_reply
  | Barrier_request
  | Barrier_reply

let header_size = 8

let set_u64 buf off v =
  set_u32_int buf off (v lsr 32);
  set_u32_int buf (off + 4) (v land 0xFFFFFFFF)

let u64 buf off =
  let* hi = u32_int buf off in
  let* lo = u32_int buf (off + 4) in
  Ok ((hi lsl 32) lor lo)

let type_code = function
  | Hello -> 0
  | Echo_request -> 2
  | Echo_reply -> 3
  | Features_request -> 5
  | Features_reply _ -> 6
  | Packet_in _ -> 10
  | Packet_out _ -> 13
  | Flow_mod _ -> 14
  | Port_status _ -> 12
  | Stats_request _ -> 16
  | Stats_reply _ -> 17
  | Barrier_request -> 18
  | Barrier_reply -> 19

let command_code = function Add -> 0 | Modify -> 1 | Delete -> 3

let command_of_code = function
  | 0 -> Ok Add
  | 1 -> Ok Modify
  | 3 -> Ok Delete
  | n -> Error (Printf.sprintf "openflow: flow_mod command %d unsupported" n)

let flow_stats_entry_size fs = 2 + 1 + 1 + Ofmatch.size + 20 + 8 + 8 + 8 + Action.list_size fs.fs_actions

let body_size = function
  | Hello | Echo_request | Echo_reply | Features_request | Barrier_request
  | Barrier_reply ->
      0
  | Features_reply _ -> 8 + 4 + 4 (* dpid, n_buffers, n_ports *)
  | Port_status _ -> 1 + 7 + 2 (* reason, pad, port *)
  | Packet_in pi -> 4 + 2 + 2 + 1 + 1 + Bytes.length pi.data
  | Packet_out po -> 4 + 2 + 2 + Action.list_size po.po_actions + Bytes.length po.po_data
  | Flow_mod fm -> Ofmatch.size + 8 + 2 + 2 + 2 + 2 + 4 + 2 + 2 + Action.list_size fm.actions
  | Stats_request (Flow_stats_req _) -> 4 + Ofmatch.size + 4
  | Stats_request (Port_stats_req _) -> 4 + 8
  | Stats_reply (Flow_stats_rep entries) ->
      4 + List.fold_left (fun acc e -> acc + flow_stats_entry_size e) 0 entries
  | Stats_reply (Port_stats_rep entries) -> 4 + (40 * List.length entries)

let encode ?(xid = 0) t =
  let len = header_size + body_size t in
  let buf = Bytes.make len '\000' in
  set_u8 buf 0 0x01 (* version *);
  set_u8 buf 1 (type_code t);
  set_u16 buf 2 len;
  set_u32_int buf 4 xid;
  let off = header_size in
  (match t with
  | Hello | Echo_request | Echo_reply | Features_request | Barrier_request
  | Barrier_reply ->
      ()
  | Features_reply { dpid; n_ports } ->
      set_u64 buf off dpid;
      set_u32_int buf (off + 8) 0 (* n_buffers *);
      set_u32_int buf (off + 12) n_ports
  | Port_status ps ->
      set_u8 buf off ps.pst_reason;
      set_u16 buf (off + 8) ps.pst_port
  | Packet_in pi ->
      set_u32_int buf off pi.buffer_id;
      set_u16 buf (off + 4) pi.total_len;
      set_u16 buf (off + 6) pi.in_port;
      set_u8 buf (off + 8) pi.reason;
      Bytes.blit pi.data 0 buf (off + 10) (Bytes.length pi.data)
  | Packet_out po ->
      set_u32_int buf off 0xFFFFFFFF (* buffer_id: none *);
      set_u16 buf (off + 4) po.po_in_port;
      set_u16 buf (off + 6) (Action.list_size po.po_actions);
      let o = Action.write_list buf (off + 8) po.po_actions in
      Bytes.blit po.po_data 0 buf o (Bytes.length po.po_data)
  | Flow_mod fm ->
      Ofmatch.write buf off fm.match_;
      let o = off + Ofmatch.size in
      set_u64 buf o fm.cookie;
      set_u16 buf (o + 8) (command_code fm.command);
      set_u16 buf (o + 10) fm.idle_timeout_s;
      set_u16 buf (o + 12) fm.hard_timeout_s;
      set_u16 buf (o + 14) fm.priority;
      set_u32_int buf (o + 16) 0xFFFFFFFF (* buffer_id *);
      set_u16 buf (o + 20) 0xFFFF (* out_port: any *);
      set_u16 buf (o + 22) 0 (* flags *);
      ignore (Action.write_list buf (o + 24) fm.actions)
  | Stats_request (Flow_stats_req m) ->
      set_u16 buf off 1 (* OFPST_FLOW *);
      set_u16 buf (off + 2) 0;
      Ofmatch.write buf (off + 4) m;
      set_u8 buf (off + 4 + Ofmatch.size) 0xFF (* table: all *);
      set_u16 buf (off + 4 + Ofmatch.size + 2) 0xFFFF (* out_port *)
  | Stats_request (Port_stats_req port) ->
      set_u16 buf off 4 (* OFPST_PORT *);
      set_u16 buf (off + 2) 0;
      set_u16 buf (off + 4) port
  | Stats_reply (Flow_stats_rep entries) ->
      set_u16 buf off 1;
      set_u16 buf (off + 2) 0;
      let o = ref (off + 4) in
      List.iter
        (fun e ->
          let entry_len = flow_stats_entry_size e in
          set_u16 buf !o entry_len;
          set_u8 buf (!o + 2) 0 (* table *);
          Ofmatch.write buf (!o + 4) e.fs_match;
          let p = !o + 4 + Ofmatch.size in
          set_u32_int buf p e.fs_duration_s;
          set_u32_int buf (p + 4) 0 (* nsec *);
          set_u16 buf (p + 8) e.fs_priority;
          set_u16 buf (p + 10) 0 (* idle *);
          set_u16 buf (p + 12) 0 (* hard *);
          (* 6 pad bytes already zero *)
          set_u64 buf (p + 20) e.fs_cookie;
          set_u64 buf (p + 28) e.fs_packets;
          set_u64 buf (p + 36) e.fs_bytes;
          ignore (Action.write_list buf (p + 44) e.fs_actions);
          o := !o + entry_len)
        entries
  | Stats_reply (Port_stats_rep entries) ->
      set_u16 buf off 4;
      set_u16 buf (off + 2) 0;
      let o = ref (off + 4) in
      List.iter
        (fun e ->
          set_u16 buf !o e.ps_port;
          set_u64 buf (!o + 8) e.ps_rx_packets;
          set_u64 buf (!o + 16) e.ps_tx_packets;
          set_u64 buf (!o + 24) e.ps_rx_bytes;
          set_u64 buf (!o + 32) e.ps_tx_bytes;
          o := !o + 40)
        entries);
  buf

let decode buf =
  let* version = u8 buf 0 in
  if version <> 0x01 then Error (Printf.sprintf "openflow: version 0x%02x" version)
  else
    let* type_ = u8 buf 1 in
    let* len = u16 buf 2 in
    if len <> Bytes.length buf then Error "openflow: length field mismatch"
    else
      let* xid = u32_int buf 4 in
      let off = header_size in
      let* msg =
        match type_ with
        | 0 -> Ok Hello
        | 2 -> Ok Echo_request
        | 3 -> Ok Echo_reply
        | 5 -> Ok Features_request
        | 18 -> Ok Barrier_request
        | 19 -> Ok Barrier_reply
        | 6 ->
            let* dpid = u64 buf off in
            let* n_ports = u32_int buf (off + 12) in
            Ok (Features_reply { dpid; n_ports })
        | 12 ->
            let* pst_reason = u8 buf off in
            let* pst_port = u16 buf (off + 8) in
            Ok (Port_status { pst_reason; pst_port })
        | 10 ->
            let* buffer_id = u32_int buf off in
            let* total_len = u16 buf (off + 4) in
            let* in_port = u16 buf (off + 6) in
            let* reason = u8 buf (off + 8) in
            let* data = bytes (len - off - 10) buf (off + 10) in
            Ok (Packet_in { buffer_id; total_len; in_port; reason; data })
        | 13 ->
            let* po_in_port = u16 buf (off + 4) in
            let* actions_len = u16 buf (off + 6) in
            let* po_actions =
              Action.read_list buf (off + 8) ~limit:(off + 8 + actions_len)
            in
            let data_off = off + 8 + actions_len in
            let* po_data = bytes (len - data_off) buf data_off in
            Ok (Packet_out { po_in_port; po_actions; po_data })
        | 14 ->
            let* match_ = Ofmatch.read buf off in
            let o = off + Ofmatch.size in
            let* cookie = u64 buf o in
            let* cmd = u16 buf (o + 8) in
            let* command = command_of_code cmd in
            let* idle_timeout_s = u16 buf (o + 10) in
            let* hard_timeout_s = u16 buf (o + 12) in
            let* priority = u16 buf (o + 14) in
            let* actions = Action.read_list buf (o + 24) ~limit:len in
            Ok
              (Flow_mod
                 {
                   match_;
                   cookie;
                   command;
                   idle_timeout_s;
                   hard_timeout_s;
                   priority;
                   actions;
                 })
        | 16 -> (
            let* stype = u16 buf off in
            match stype with
            | 1 ->
                let* m = Ofmatch.read buf (off + 4) in
                Ok (Stats_request (Flow_stats_req m))
            | 4 ->
                let* port = u16 buf (off + 4) in
                Ok (Stats_request (Port_stats_req port))
            | n -> Error (Printf.sprintf "openflow: stats type %d unsupported" n))
        | 17 -> (
            let* stype = u16 buf off in
            match stype with
            | 1 ->
                let rec go o acc =
                  if o > len then Error "openflow: flow stats overrun"
                  else if o = len then Ok (List.rev acc)
                  else
                    let* entry_len = u16 buf o in
                    if entry_len < 44 + Ofmatch.size + 4 then
                      Error "openflow: flow stats entry too short"
                    else
                      let* fs_match = Ofmatch.read buf (o + 4) in
                      let p = o + 4 + Ofmatch.size in
                      let* fs_duration_s = u32_int buf p in
                      let* fs_priority = u16 buf (p + 8) in
                      let* fs_cookie = u64 buf (p + 20) in
                      let* fs_packets = u64 buf (p + 28) in
                      let* fs_bytes = u64 buf (p + 36) in
                      let* fs_actions =
                        Action.read_list buf (p + 44) ~limit:(o + entry_len)
                      in
                      go (o + entry_len)
                        ({
                           fs_match;
                           fs_priority;
                           fs_cookie;
                           fs_packets;
                           fs_bytes;
                           fs_duration_s;
                           fs_actions;
                         }
                        :: acc)
                in
                let* entries = go (off + 4) [] in
                Ok (Stats_reply (Flow_stats_rep entries))
            | 4 ->
                let rec go o acc =
                  if o > len then Error "openflow: port stats overrun"
                  else if o = len then Ok (List.rev acc)
                  else
                    let* ps_port = u16 buf o in
                    let* ps_rx_packets = u64 buf (o + 8) in
                    let* ps_tx_packets = u64 buf (o + 16) in
                    let* ps_rx_bytes = u64 buf (o + 24) in
                    let* ps_tx_bytes = u64 buf (o + 32) in
                    go (o + 40)
                      ({ ps_port; ps_rx_packets; ps_tx_packets; ps_rx_bytes; ps_tx_bytes }
                      :: acc)
                in
                let* entries = go (off + 4) [] in
                Ok (Stats_reply (Port_stats_rep entries))
            | n -> Error (Printf.sprintf "openflow: stats type %d unsupported" n))
        | n -> Error (Printf.sprintf "openflow: message type %d unsupported" n)
      in
      Ok (msg, xid)

let flow_stats_equal a b =
  Ofmatch.equal a.fs_match b.fs_match
  && a.fs_priority = b.fs_priority && a.fs_cookie = b.fs_cookie
  && a.fs_packets = b.fs_packets && a.fs_bytes = b.fs_bytes
  && a.fs_duration_s = b.fs_duration_s
  && List.equal Action.equal a.fs_actions b.fs_actions

let equal a b =
  match (a, b) with
  | Hello, Hello
  | Echo_request, Echo_request
  | Echo_reply, Echo_reply
  | Features_request, Features_request
  | Barrier_request, Barrier_request
  | Barrier_reply, Barrier_reply ->
      true
  | Features_reply x, Features_reply y ->
      x.dpid = y.dpid && x.n_ports = y.n_ports
  | Packet_in x, Packet_in y ->
      x.buffer_id = y.buffer_id && x.total_len = y.total_len
      && x.in_port = y.in_port && x.reason = y.reason
      && Bytes.equal x.data y.data
  | Packet_out x, Packet_out y ->
      x.po_in_port = y.po_in_port
      && List.equal Action.equal x.po_actions y.po_actions
      && Bytes.equal x.po_data y.po_data
  | Flow_mod x, Flow_mod y ->
      Ofmatch.equal x.match_ y.match_
      && x.cookie = y.cookie && x.command = y.command
      && x.idle_timeout_s = y.idle_timeout_s
      && x.hard_timeout_s = y.hard_timeout_s
      && x.priority = y.priority
      && List.equal Action.equal x.actions y.actions
  | Stats_request (Flow_stats_req x), Stats_request (Flow_stats_req y) ->
      Ofmatch.equal x y
  | Stats_request (Port_stats_req x), Stats_request (Port_stats_req y) -> x = y
  | Stats_reply (Flow_stats_rep x), Stats_reply (Flow_stats_rep y) ->
      List.equal flow_stats_equal x y
  | Stats_reply (Port_stats_rep x), Stats_reply (Port_stats_rep y) ->
      List.equal ( = ) x y
  | Port_status x, Port_status y ->
      x.pst_reason = y.pst_reason && x.pst_port = y.pst_port
  | ( ( Hello | Echo_request | Echo_reply | Features_request | Features_reply _
      | Packet_in _ | Packet_out _ | Flow_mod _ | Port_status _
      | Stats_request _ | Stats_reply _ | Barrier_request | Barrier_reply ),
      _ ) ->
      false
