(** The OpenFlow switch agent: a flow table plus the control channel
    to the SDN controller.

    The agent answers the handshake (HELLO, FEATURES), ECHO and
    BARRIER; applies FLOW_MODs; serves flow and port statistics; and
    raises PACKET_INs. It does not move data packets itself — the
    simulated data plane (via the Connection Manager) consults
    {!lookup} and reports misses back through {!packet_in}, mirroring
    how Horse's simulated switches consult their emulated agent. *)

open Horse_engine
open Horse_emulation

type t

val create :
  ?trace:Trace.t ->
  Process.t ->
  dpid:int ->
  ports:(int * int) list ->
  Channel.endpoint ->
  t
(** [ports] maps OpenFlow port numbers to directed out-link ids of the
    underlying topology node.
    @raise Invalid_argument on duplicate port numbers. *)

val start : t -> unit
(** Sends HELLO. Timeouts need no start: each FLOW_MOD re-aims the
    switch's one expiry event at {!Flow_table.next_deadline}, so a
    timed entry expires at its exact deadline and a table without
    timed entries has no pending event. *)

val table : t -> Flow_table.t

val link_of_port : t -> int -> int option
(** [None] for unknown or administratively-down ports. *)

val port_of_link : t -> int -> int option

val set_port_down : t -> int -> unit
(** Takes a port down: {!link_of_port} stops resolving it and a
    PORT_STATUS (delete) is raised to the controller. Idempotent. *)

val set_port_up : t -> int -> unit
(** Reverse of {!set_port_down}; raises PORT_STATUS (add). *)

val is_port_down : t -> int -> bool

val lookup : t -> Ofmatch.fields -> Flow_table.entry option
(** {!Flow_table.lookup} on the switch's table; no externally visible
    side effects. Each call bumps [horse_openflow_tss_hits_total] or
    [horse_openflow_lookup_misses_total] for this dpid. *)

val packet_in : t -> in_port:int -> Bytes.t -> unit
(** Reports a table miss upstream (reason OFPR_NO_MATCH). *)

val on_flow_mod : t -> (Ofmsg.flow_mod -> unit) -> unit
(** Fired after a FLOW_MOD has been applied to the table. *)

val on_packet_out : t -> (Ofmsg.packet_out -> unit) -> unit

val on_expired : t -> (Flow_table.entry -> unit) -> unit
(** Fired for each entry removed by idle/hard timeout, at its
    deadline. An entry removed by a FLOW_MOD DELETE fires nothing. *)

val set_flow_stats_provider : t -> (Flow_table.entry -> int * int) -> unit
(** Overrides the (packets, bytes) reported for an entry in flow
    stats; the default reads the entry counters. The fluid data plane
    installs a provider that integrates flow rates, so Hedera sees
    live byte counts. *)

val packet_ins_sent : t -> int
val flow_mods_received : t -> int

(** {2 Causal nodes} *)

val flow_mod_kind : Causal.kind
(** ["of:flow_mod"], printed ["dpid=<dpid>"]; payload: the dpid. *)

val packet_in_kind : Causal.kind
(** ["of:packet_in"], printed by {!dpid_port_detail}; payload:
    [Causal.pair dpid in_port]. *)

val dpid_port_detail : int -> string
(** ["dpid=<dpid> port=<port>"] from a [Causal.pair dpid port]
    payload. *)
