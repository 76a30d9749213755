(** The controller applications' view of the fabric.

    Real controllers learn the topology via LLDP discovery; the Horse
    demonstration (like most Ryu example apps) hands the application a
    topology map instead. [Env] bundles that map with the
    dpid↔node and link↔port translations the experiment scaffolding
    established, plus the administrative link state its path queries
    honour. *)

open Horse_net
open Horse_topo

type t

val create :
  topo:Topology.t ->
  dpid_of_node:(int -> int option) ->
  node_of_dpid:(int -> int option) ->
  port_of_link:(int -> int option) ->
  unit ->
  t
(** [port_of_link] maps a directed link id to the OpenFlow port number
    on its source switch. The topology must be complete: links added
    afterwards are unknown to {!set_link_usable}. *)

val topo : t -> Topology.t
val dpid_of_node : t -> int -> int option
val node_of_dpid : t -> int -> int option
val port_of_link : t -> int -> int option

val host_of_ip : t -> Ipv4.t -> int option
(** Node id of the host owning this address (scans once, then
    cached). *)

val ecmp_paths : t -> src:int -> dst:int -> Spf.path list
(** All equal-cost shortest paths between two nodes over usable links,
    in {!Spf.ecmp_paths} order (at most 64), from one
    {!Spf.ecmp_between} search rooted at [src]. It shares {!ecmp_pick}'s
    workspace, so a pick after it starts a new search. Hedera scores
    the whole list; an application that keeps one path uses
    {!ecmp_pick}. *)

val ecmp_pick : t -> src:int -> dst:int -> (int -> int) -> Spf.path option
(** [ecmp_pick t ~src ~dst index] is path [index n] of the [n] that
    {!ecmp_paths} would return ([1 <= n <= 64]), built alone by
    {!Spf.ecmp_pick}: same order, same cap, no list of candidates.
    A single-homed host is searched from its edge switch, and the
    search stays open, so picks from the hosts behind one switch share
    it until the link state changes or another search runs.
    [None], without calling [index], when there is no path. *)

val edge_switch_of_host : t -> int -> int option
(** The switch adjacent to a host node. *)

val edge_dpids : t -> int list
(** Dpids of switches that have at least one host attached, sorted. *)

val set_link_usable : t -> int -> bool -> unit
(** Administratively marks a directed link up/down; down links are
    excluded from {!ecmp_paths} and {!ecmp_pick}. Drops the open
    search, whose distances assumed the old link state. The
    applications call this from PORT_STATUS notifications. *)
