(** Transport 5-tuples and the ECMP hash functions used by the
    demonstration's traffic-engineering schemes.

    The paper compares (i) ECMP hashing only the IP source and
    destination (the BGP scenario) against (iii) ECMP hashing the full
    5-tuple (the SDN scenario); both hashes live here so the data plane
    and the controller agree on path selection. *)

type t = {
  src : Ipv4.t;
  dst : Ipv4.t;
  proto : Headers.Proto.t;
  src_port : int;  (** 0 for protocols without ports *)
  dst_port : int;
}

val make :
  src:Ipv4.t ->
  dst:Ipv4.t ->
  ?proto:Headers.Proto.t ->
  ?src_port:int ->
  ?dst_port:int ->
  unit ->
  t
(** Defaults: UDP, ports 0. *)

val of_packet : Packet.t -> t option
(** [None] for non-IP frames. Ports are 0 for ICMP/other protocols. *)

val reverse : t -> t
(** Swaps source and destination address and port. *)

val hash_src_dst : t -> int
(** Non-negative hash of (src ip, dst ip) only — the BGP+ECMP
    selector. Deterministic across runs. *)

val hash_5tuple : t -> int
(** Non-negative hash of the full 5-tuple — the SDN ECMP selector.
    Deterministic across runs. *)

val select : hash:int -> int -> int
(** [select ~hash n] maps a hash onto a bucket in [0, n).
    @raise Invalid_argument if [n <= 0]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Hashtbl functor instance keyed by full 5-tuples. *)
module Table : Hashtbl.S with type key = t
