(** OSPFv2 packets and LSAs with a binary codec (RFC 2328 subset).

    Supported packets: HELLO, LS UPDATE and LS ACK — enough for
    point-to-point adjacencies over reliable emulated channels (no DR
    election, no database-description exchange: a new Full neighbour
    simply receives a flood of the whole LSDB, which converges to the
    same state). Only Router-LSAs exist; stub links carry the
    originated prefixes. Packet checksums use the Internet checksum
    over the whole packet (the RFC excludes the auth field and uses
    Fletcher for LSAs; this simplification is documented here and
    checked by tests). *)

open Horse_net

(** One link advertised inside a Router-LSA. *)
type lsa_link =
  | Point_to_point of { neighbor : Ipv4.t; metric : int }
      (** an adjacency to another router (by router id) *)
  | Stub of { prefix : Prefix.t; metric : int }
      (** an attached prefix *)

type lsa = {
  adv_router : Ipv4.t;  (** originating router id (also the LS id) *)
  seq : int;  (** 32-bit sequence number; higher = newer *)
  links : lsa_link list;
}

type hello = {
  hello_interval_s : int;
  dead_interval_s : int;
  neighbors : Ipv4.t list;  (** router ids heard on this interface *)
}

type t =
  | Hello of hello
  | Ls_update of lsa list
  | Ls_ack of (Ipv4.t * int) list  (** acknowledged (adv_router, seq) *)

val encode : router_id:Ipv4.t -> t -> Bytes.t
(** Serializes with the 24-byte OSPF header (version 2, area 0) and a
    valid packet checksum. *)

val decode : Bytes.t -> (Ipv4.t * t, string) result
(** Returns the sender's router id and the packet. Verifies version,
    length and checksum. *)

val equal : t -> t -> bool
