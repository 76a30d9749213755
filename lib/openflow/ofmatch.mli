(** OpenFlow 1.0-style flow match: a 12-tuple with wildcards, plus the
    concrete header-field record it is tested against.

    Encoded as the 40-byte [ofp_match] structure, including the
    wildcard bitfield with the 6-bit CIDR mask sub-fields for the
    network addresses. *)

open Horse_net

(** Concrete packet fields as seen by a switch port. *)
type fields = {
  in_port : int;
  eth_src : Mac.t;
  eth_dst : Mac.t;
  eth_type : int;
  ip_src : Ipv4.t;
  ip_dst : Ipv4.t;
  ip_proto : int;
  tp_src : int;
  tp_dst : int;
}

val fields_of_key : ?in_port:int -> Flow_key.t -> fields
(** Synthesises fields from a 5-tuple (MACs derived from the
    addresses, ethertype IPv4). *)

type t = {
  m_in_port : int option;
  m_eth_src : Mac.t option;
  m_eth_dst : Mac.t option;
  m_eth_type : int option;
  m_ip_src : Prefix.t option;
  m_ip_dst : Prefix.t option;
  m_ip_proto : int option;
  m_tp_src : int option;
  m_tp_dst : int option;
}

val any : t
(** Matches everything (all fields wildcarded). *)

val exact_5tuple : Flow_key.t -> t
(** Matches exactly this 5-tuple (L2 fields wildcarded, as the SDN
    ECMP application installs). *)

val to_dst : Prefix.t -> t
(** Match on IPv4 destination prefix only. *)

val matches : t -> fields -> bool

val fields_equal : fields -> fields -> bool

(** Hashtbl key module over concrete header fields (a splitmix64-style
    mix of all nine). *)
module Fields_key : sig
  type t = fields

  val equal : t -> t -> bool
  val hash : t -> int
end

(** A wildcard mask: which of the nine fields a match actually
    consults. Network addresses carry a prefix length (0 = fully
    wildcarded) instead of a bit. *)
module Mask : sig
  type t = {
    k_in_port : bool;
    k_eth_src : bool;
    k_eth_dst : bool;
    k_eth_type : bool;
    k_ip_src : int;  (** consulted prefix bits, 0..32 *)
    k_ip_dst : int;  (** consulted prefix bits, 0..32 *)
    k_ip_proto : bool;
    k_tp_src : bool;
    k_tp_dst : bool;
  }

  val project : t -> fields -> fields
  (** Canonicalise fields under the mask: wildcarded fields zeroed,
      addresses truncated to the consulted prefix. Packets with equal
      projections are indistinguishable to any match with this
      mask. *)

  val equal : t -> t -> bool
  val hash : t -> int
  val pp : Format.formatter -> t -> unit
end

val mask_of : t -> Mask.t
(** The fields this match constrains. *)

val fields_of_match : t -> fields
(** The match's constrained values as concrete fields (wildcards
    zeroed) — canonical under [mask_of], the per-bucket key of the
    tuple-space search. *)

(** Hashtbl key identifying a match up to semantic equality:
    (mask, canonical fields). Build one with {!match_key}. *)
module Match_key : sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

val match_key : t -> Match_key.t

val is_exact_overlap : t -> t -> bool
(** True when the two matches could both match some packet — used by
    flow-mod DELETE with loose matching semantics. Exact for this
    independent-field model: returns false whenever any single field
    carries provably disjoint constraints (different exact values, or
    non-overlapping prefixes). *)

val size : int
(** 40 bytes encoded. *)

val write : Bytes.t -> int -> t -> unit
val read : t Wire.reader

val equal : t -> t -> bool
