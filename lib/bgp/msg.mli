(** BGP-4 messages and their wire codec (RFC 4271 subset).

    The speaker exchanges genuinely serialized messages over the
    emulated control channels — the Connection Manager observes real
    BGP bytes, as it would with Quagga. Supported: OPEN (no optional
    parameters), UPDATE with the ORIGIN / AS_PATH / NEXT_HOP / MED /
    LOCAL_PREF attributes (AS_PATH as one AS_SEQUENCE segment, 2-byte
    ASNs), KEEPALIVE, and NOTIFICATION. *)

open Horse_net

type origin = Igp | Egp | Incomplete

val origin_to_int : origin -> int
val origin_of_int : int -> (origin, string) result

type attrs = {
  origin : origin;
  as_path : int list;  (** nearest AS first *)
  next_hop : Ipv4.t;
  med : int option;
  local_pref : int option;
  communities : int list;
      (** RFC 1997 COMMUNITIES, each a 32-bit [AS:value] tag, sorted;
          conventionally written [(asn lsl 16) lor value] *)
}

val community : asn:int -> int -> int
(** [community ~asn v] is the 32-bit community [asn:v].
    @raise Invalid_argument if either half exceeds 16 bits. *)

val attrs_equal : attrs -> attrs -> bool

val attrs_hash : attrs -> int
(** Structural hash consistent with {!attrs_equal}; non-negative.
    Suitable for [Hashtbl.Make] and precomputed by {!Attr_intern}. *)

type open_msg = { asn : int; hold_time_s : int; bgp_id : Ipv4.t }

type update = {
  withdrawn : Prefix.t list;
  reach : (attrs * Prefix.t list) option;
      (** the announced NLRI and their shared attributes *)
}

type t =
  | Open of open_msg
  | Update of update
  | Keepalive
  | Notification of { code : int; subcode : int }

val encode : t -> Bytes.t
(** Full message including the 19-byte header with all-ones marker.
    @raise Invalid_argument if a field is out of range (ASN or hold
    time beyond 16 bits, AS_PATH longer than 255). *)

val decode : Bytes.t -> (t, string) result
(** Parses one whole message; verifies the marker, the length field
    and attribute well-formedness. Never raises. It reads the buffer in
    place: the only allocation is the message itself (its prefixes,
    lists and attribute record) and the [result] around it. The first
    bad field decides the [Error]; a read past the end reports
    ["short buffer: need [a,b) but length is n"] for the first such
    field. *)

val header_size : int
(** 19 bytes. *)

val max_message_size : int
(** 4096 bytes — the RFC 4271 maximum; {!Packer} never exceeds it. *)

type packed = {
  bytes : Bytes.t;  (** one whole encoded UPDATE, ≤ {!max_message_size} *)
  announced : int;  (** NLRI prefixes carried *)
  withdrawn : int;  (** withdrawn prefixes carried *)
}

(** Packed UPDATE serializer with a reusable buffer arena.

    [pack] spreads a withdraw set plus one attribute group's NLRI over
    as few UPDATE messages as the 4096-byte limit allows: withdrawals
    are coalesced into the leading message(s), the shared path
    attributes are serialized exactly once into the arena and blitted
    into every message that carries NLRI. The arena (one 4096-byte
    build buffer plus the attrs slice) is reused across calls, so a
    steady flush allocates only the emitted messages themselves. *)
module Packer : sig
  type t

  val create : unit -> t

  val pack :
    t -> ?withdrawn:Prefix.t list -> ?reach:attrs * Prefix.t list -> unit ->
    packed list
  (** Empty inputs yield [[]]. Decoding each emitted message yields an
      [Update] whose withdrawn/NLRI sets partition the inputs. *)
end

val equal : t -> t -> bool
