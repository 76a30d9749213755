(** Wide-area topologies.

    The paper notes Horse "is not restricted to DCs and can also be
    used for other types of networks, e.g., Wide Area Networks"; these
    builders provide router-level WAN graphs for the BGP examples.
    Every node is a {!Topology.Router} with a loopback in
    [192.0.2.0/24]-style per-node space; every router-router link is
    10 Gbps / 5 ms. *)

open Horse_net

type t = { topo : Topology.t; routers : Topology.node array }

val linear : int -> t
(** A chain [r0 - r1 - ... - r(n-1)].
    @raise Invalid_argument if [n < 1]. *)

val ring : int -> t
(** A cycle; needs [n >= 3]. *)

val star : int -> t
(** [n] leaves around router 0 (so [n + 1] nodes);
    needs [n >= 1]. *)

val random_gnp : seed:int -> n:int -> p:float -> unit -> t
(** Erdős–Rényi G(n, p), then augmented with a random spanning chain
    so the graph is always connected. Deterministic in [seed]. *)

val abilene : unit -> t
(** The 11-node Abilene research backbone (a standard WAN test
    topology). *)

val attach_hosts : ?capacity:float -> t -> Topology.node array
(** Adds one host per router (the stand-in for each PoP's customer
    traffic), addressed as the first usable address of the router's
    {!router_prefix}, over a 1 ms link of [capacity] (default 1 Gbps).
    Returns the hosts, indexed like the routers. Call once. *)

val router_ip : t -> int -> Ipv4.t
(** Loopback of router [i]. *)

val router_prefix : t -> int -> Prefix.t
(** A /24 of end-user space owned by router [i], for advertisement in
    BGP experiments. *)
