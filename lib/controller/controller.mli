(** The SDN controller framework (the Ryu/ONOS stand-in).

    A controller is an emulated process speaking real OpenFlow bytes
    over one channel per switch. It runs the handshake (HELLO +
    FEATURES_REQUEST), demultiplexes asynchronous messages to
    application hooks, and correlates request/reply pairs (stats,
    barrier) by transaction id. Applications ({!App_learning},
    {!App_ecmp}, {!App_hedera}) are written against this interface. *)

open Horse_engine
open Horse_openflow
open Horse_emulation

type t

type sw
(** The controller's view of one connected switch. *)

val create : ?trace:Trace.t -> Process.t -> t

val process : t -> Process.t

val connect : t -> Channel.endpoint -> unit
(** Attach one switch's control channel and start the handshake. *)

val switches : t -> sw list
(** Switches that completed the handshake, in connection order. *)

val switch_by_dpid : t -> int -> sw option
val dpid : sw -> int

val on_switch_up : t -> (sw -> unit) -> unit
(** Fired when a switch's FEATURES_REPLY arrives. *)

val on_packet_in : t -> (sw -> Ofmsg.packet_in -> unit) -> unit

val on_port_status : t -> (sw -> Ofmsg.port_status -> unit) -> unit
(** Fired on PORT_STATUS (a link coming up or going down at a
    switch). *)

val send_flow_mod : t -> sw -> Ofmsg.flow_mod -> unit
val send_packet_out : t -> sw -> Ofmsg.packet_out -> unit

val request_flow_stats : t -> sw -> (Ofmsg.flow_stats list -> unit) -> unit
(** Statistics of every entry (an all-wildcards match). Asynchronous;
    the callback runs when the reply arrives. *)

val request_port_stats : t -> sw -> (Ofmsg.port_stats list -> unit) -> unit

val barrier : t -> sw -> (unit -> unit) -> unit

val packet_in_kind : Causal.kind
(** The ["ctrl:packet_in"] causal node, printed by
    {!Horse_openflow.Switch.dpid_port_detail}; payload:
    [Causal.pair dpid in_port]. *)
