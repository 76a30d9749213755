(** The link-state database and the intra-area SPF computation.

    One Router-LSA per router id, newest sequence number wins. Route
    computation follows RFC 2328 §16.1 for a pure point-to-point
    topology: Dijkstra over the adjacency graph — an edge is used only
    if {e both} endpoints advertise it (the two-way check) — then stub
    prefixes are attached to their routers. Equal-cost first hops are
    preserved as ECMP sets. *)

open Horse_net

type t

val create : unit -> t

type install_outcome =
  | Newer  (** installed; the LSA must be flooded on *)
  | Duplicate  (** same sequence already present; acknowledge only *)
  | Older  (** stale; ignore *)

val install : t -> Ospf_msg.lsa -> install_outcome

val lookup : t -> Ipv4.t -> Ospf_msg.lsa option
val lsas : t -> Ospf_msg.lsa list
(** Sorted by router id. *)

val size : t -> int

type route = {
  prefix : Prefix.t;
  cost : int;
  next_hops : Ipv4.t list;  (** router ids of equal-cost first hops *)
}

val routes : t -> self:Ipv4.t -> route list
(** Shortest routes from [self] to every stub prefix in the database
    (excluding prefixes [self] originates itself), sorted by prefix.
    First hops are neighbour router ids; the daemon maps them to
    interfaces. *)
