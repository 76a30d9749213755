(** Per-node IP forwarding table: longest-prefix match onto an ECMP
    group of outgoing links.

    This is the simulated data-plane state that the control plane
    programs — the BGP speakers install their Loc-RIB here and the
    Connection Manager installs controller decisions for OpenFlow-less
    routed fabrics.

    A table keeps one hash table per prefix length in use, keyed on the
    network address as an unboxed int, and created by the first route
    of that length: an empty forwarding table (every host's) holds no
    per-length table at all. A lookup probes only the lengths in use,
    longest first, so a fabric FIB of /24s and /32s costs at most two
    probes. *)

open Horse_net

type t
(** A forwarding table for one node. *)

val create : unit -> t

val set_route : t -> Prefix.t -> next_hops:int list -> unit
(** [set_route t p ~next_hops] installs (or replaces) the route to
    [p]; [next_hops] are the directed out-link ids of the ECMP group,
    deduplicated and kept sorted for determinism.
    @raise Invalid_argument if [next_hops] is empty. *)

val remove_route : t -> Prefix.t -> unit
(** Idempotent. *)

val lookup : t -> Ipv4.t -> int list option
(** Longest-prefix match; returns the ECMP group, or [None] when no
    route covers the address. One probe per length in use at most,
    and no allocation on a miss. *)

val lookup_select : t -> Ipv4.t -> hash:int -> int option
(** LPM, then pick one link of the group by [hash mod group size]. *)

val routes : t -> (Prefix.t * int list) list
(** Sorted by prefix (network, then length). *)

val route_count : t -> int

val lengths : t -> int list
(** The prefix lengths that hold a route, longest first: the lengths
    {!lookup} probes. Removing a length's last route drops it. *)
