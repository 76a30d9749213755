(** The k-ary Fat-Tree of Al-Fares et al. (SIGCOMM 2008) — the
    demonstration topology of the Horse paper.

    For an even [k] ("pods" in the paper's terminology):
    - [k] pods, each with [k/2] edge and [k/2] aggregation switches;
    - [(k/2)^2] core switches;
    - [k/2] hosts per edge switch, [k^3/4] hosts in total;
    - every link has the same capacity (1 Gbps, as in the demo).

    Addressing follows the original paper: pod switch [s] of pod [p]
    is [10.p.s.1] (edge switches are [s < k/2], aggregation
    [k/2 <= s < k]); core switch [(j,i)] is [10.k.j.i]; host [h] of
    edge switch [e] in pod [p] is [10.p.e.(h+2)]. *)

open Horse_net

type t = {
  k : int;
  topo : Topology.t;
  hosts : Topology.node array;  (** all [k^3/4] hosts, pod-major order *)
  edges : Topology.node array array;  (** [edges.(pod).(e)] *)
  aggs : Topology.node array array;  (** [aggs.(pod).(a)] *)
  cores : Topology.node array;  (** row-major [(j-1)*(k/2) + (i-1)] *)
}

val build : k:int -> unit -> t
(** [build ~k ()] constructs the Fat-Tree: every link 1 Gbps with a
    10 µs delay.
    @raise Invalid_argument if [k] is odd or [k < 2]. *)

val n_hosts : k:int -> int
(** [k^3/4], without building. *)

val n_switches : k:int -> int
(** [5k^2/4] (edge + aggregation + core), without building. *)

val host_ip : t -> int -> Ipv4.t
(** Address of host number [i] (pod-major). *)

val host_of_ip : t -> Ipv4.t -> Topology.node option
(** Reverse lookup within this Fat-Tree's host range. *)

val pod_of_host : t -> int -> int
(** Pod number of host [i]. *)

val edge_subnets : t -> int -> Prefix.t list
(** [edge_subnets t] maps the node id of edge switch [e] of pod [p] to
    its host subnet [[10.p.e.0/24]] and every other node to [[]] — the
    [originate] function of the BGP scenario. Apply it to [t] once and
    reuse the result: that builds the lookup table. *)
