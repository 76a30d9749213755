(** Whole-frame construction and parsing.

    A {!t} is a structured view of one Ethernet frame. [encode]
    computes all length and checksum fields itself (the corresponding
    fields of the header records are ignored on input and correct on
    output), so an encoded frame is always internally consistent.
    [decode] verifies the IPv4 header checksum and, when present, the
    UDP/TCP checksum. *)

type l4 =
  | Udp of Headers.Udp.t * Bytes.t  (** header, payload *)
  | Tcp of Headers.Tcp.t * Bytes.t
  | Raw_l4 of Headers.Proto.t * Bytes.t
      (** any other protocol: opaque bytes after the IP header *)

type body =
  | Arp of Headers.Arp.t
  | Ipv4 of Headers.Ip.t * l4
  | Raw of Bytes.t  (** unknown ethertype payload *)

type t = { eth : Headers.Eth.t; body : body }

val encode : t -> Bytes.t
(** Serializes the frame, recomputing every length and checksum. *)

val decode : Bytes.t -> (t, string) result
(** Parses a frame produced by {!encode} (or any well-formed frame
    within this library's supported feature set). Validates IPv4 and
    L4 checksums; an IPv4 [total_length] shorter than the available
    bytes truncates the payload, longer is an error. *)

val size : t -> int
(** Encoded size in bytes, without encoding. *)

(** Convenience constructors (consistent lengths, TTL 64, no TCP
    flags, checksums computed at {!encode} time). *)

val udp :
  src_mac:Mac.t ->
  dst_mac:Mac.t ->
  src:Ipv4.t ->
  dst:Ipv4.t ->
  src_port:int ->
  dst_port:int ->
  Bytes.t ->
  t

val tcp :
  src_mac:Mac.t ->
  dst_mac:Mac.t ->
  src:Ipv4.t ->
  dst:Ipv4.t ->
  src_port:int ->
  dst_port:int ->
  ?seq:int ->
  Bytes.t ->
  t

val arp_request : src_mac:Mac.t -> src:Ipv4.t -> target:Ipv4.t -> t
(** Broadcast who-has. *)

val arp_reply :
  src_mac:Mac.t -> dst_mac:Mac.t -> src:Ipv4.t -> target:Ipv4.t -> t

val equal : t -> t -> bool
