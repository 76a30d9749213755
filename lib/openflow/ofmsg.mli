(** OpenFlow 1.0-style protocol messages and their binary codec.

    Structure follows the OpenFlow 1.0 wire protocol (8-byte header
    with version 0x01, the 40-byte [ofp_match], 8-byte output
    actions). Two documented simplifications: FEATURES_REPLY carries a
    port {e count} instead of the full 48-byte port descriptors, and
    PORT_STATS entries carry the four main counters only. *)

type flow_mod_command = Add | Modify | Delete

type flow_mod = {
  match_ : Ofmatch.t;
  cookie : int;
  command : flow_mod_command;
  idle_timeout_s : int;  (** 0 = no idle expiry *)
  hard_timeout_s : int;  (** 0 = no hard expiry *)
  priority : int;
  actions : Action.t list;
}

type packet_in = {
  buffer_id : int;
  total_len : int;
  in_port : int;
  reason : int;  (** 0 = no match, 1 = action *)
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
(** Port number, or 0xFFFF for all ports. *)

type stats_reply = Flow_stats_rep of flow_stats list | Port_stats_rep of port_stats list

type port_status = {
  pst_reason : int;  (** 0 = add (up), 1 = delete (down), 2 = modify *)
  pst_port : int;
}

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

val encode : ?xid:int -> t -> Bytes.t
val decode : Bytes.t -> (t * int, string) result
(** Returns the message and its transaction id. *)

val equal : t -> t -> bool
