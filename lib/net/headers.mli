(** Protocol header records and their wire codecs.

    Each header module offers [size] (fixed encoded size in bytes, or
    [size_of] when variable), [write buf off t] and
    [read : t Wire.reader]. Checksums are computed by [write] and
    validated by the packet-level decoder in {!Packet}, not here. *)

(** IP protocol numbers used by the library. *)
module Proto : sig
  type t = Icmp | Tcp | Udp | Other of int

  val to_int : t -> int
  val of_int : int -> t
  val pp : Format.formatter -> t -> unit
  val equal : t -> t -> bool
end

(** Ethernet II frame header (no 802.1Q support). *)
module Eth : sig
  type ethertype = Ipv4_type | Arp_type | Unknown of int

  type t = { dst : Mac.t; src : Mac.t; ethertype : ethertype }

  val size : int
  (** 14 bytes. *)

  val write : Bytes.t -> int -> t -> unit
  val read : t Wire.reader
  val equal : t -> t -> bool
end

(** ARP for IPv4 over Ethernet. *)
module Arp : sig
  type op = Request | Reply

  type t = {
    op : op;
    sender_mac : Mac.t;
    sender_ip : Ipv4.t;
    target_mac : Mac.t;
    target_ip : Ipv4.t;
  }

  val size : int
  (** 28 bytes. *)

  val write : Bytes.t -> int -> t -> unit

  val read : t Wire.reader
  (** Fails on non-Ethernet/IPv4 hardware or protocol types and on
      unknown opcodes. *)

  val equal : t -> t -> bool
end

(** IPv4 header, options unsupported (IHL is always 5). *)
module Ip : sig
  type t = {
    dscp : int;  (** 6 bits *)
    ident : int;  (** 16 bits *)
    dont_fragment : bool;
    ttl : int;
    proto : Proto.t;
    src : Ipv4.t;
    dst : Ipv4.t;
    total_length : int;  (** header + payload, in bytes *)
  }

  val size : int
  (** 20 bytes (no options). *)

  val write : Bytes.t -> int -> t -> unit
  (** Writes the header with a correct checksum. *)

  val read : t Wire.reader
  (** Fails on version <> 4, IHL <> 5, or bad header checksum. *)
end

val pseudo_header_sum :
  src:Ipv4.t -> dst:Ipv4.t -> proto:Proto.t -> length:int -> Checksum.accumulator
(** Ones'-complement sum of the RFC 768/793 pseudo-header, the common
    prefix of the UDP and TCP checksums. *)

(** UDP header. The checksum covers the RFC 768 pseudo-header and the
    payload; [write_with_checksum] needs both. *)
module Udp : sig
  type t = { src_port : int; dst_port : int; length : int (** incl. header *) }

  val size : int
  (** 8 bytes. *)

  val write_with_checksum :
    Bytes.t -> int -> t -> src:Ipv4.t -> dst:Ipv4.t -> payload_off:int -> unit
  (** Writes the header at [off] and computes the checksum over the
      pseudo-header and [t.length - size] payload bytes which must
      already be present at [payload_off]. *)

  val read : t Wire.reader
end

(** TCP header (no options; data offset always 5). *)
module Tcp : sig
  type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool }

  type t = {
    src_port : int;
    dst_port : int;
    seq : int;  (** 32 bits, unsigned *)
    ack_num : int;  (** 32 bits, unsigned *)
    flags : flags;
    window : int;
  }

  val size : int
  (** 20 bytes. *)

  val no_flags : flags

  val write_with_checksum :
    Bytes.t ->
    int ->
    t ->
    src:Ipv4.t ->
    dst:Ipv4.t ->
    payload_off:int ->
    payload_len:int ->
    unit

  val read : t Wire.reader
  val equal : t -> t -> bool
end
