(** IPv4 CIDR prefixes.

    A prefix is a network address plus a mask length. Values are kept
    in canonical form: host bits below the mask are always zero, so
    structural equality coincides with semantic equality. *)

type t
(** A canonical CIDR prefix such as [10.1.0.0/16]. *)

val make : Ipv4.t -> int -> t
(** [make addr len] is the prefix of length [len] containing [addr];
    host bits of [addr] are silently cleared.
    @raise Invalid_argument if [len] is outside [0, 32]. *)

val of_string : string -> t option
(** Parses ["a.b.c.d/len"]. A bare address parses as a /32. Host bits
    are cleared as in {!make}. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on parse failure. *)

val to_string : t -> string
(** ["10.1.0.0/16"] notation (always includes the length). *)

val to_bits : t -> int
(** The prefix in 38 bits of a non-negative int: the address (as an
    unsigned 32-bit value) shifted left by 6, or'd with the length.
    Injective, so a prefix can ride in an int payload. *)

val of_bits : int -> t
(** Inverse of {!to_bits}.
    @raise Invalid_argument on any int {!to_bits} does not produce
    (out of range, length above 32, host bits set). *)

val network : t -> Ipv4.t
(** First address of the prefix (the canonical address itself). *)

val length : t -> int
(** Mask length in [0, 32]. *)

val netmask : t -> Ipv4.t
(** [netmask p] is the dotted-quad mask, e.g. [255.255.0.0] for a
    /16. *)

val broadcast : t -> Ipv4.t
(** Last address of the prefix. *)

val size : t -> int
(** Number of addresses covered: [2 ^ (32 - length)]. Exact on 64-bit
    platforms. *)

val mem : Ipv4.t -> t -> bool
(** [mem a p] is [true] iff [a] falls inside [p]. *)

val subset : t -> t -> bool
(** [subset p q] is [true] iff every address of [p] lies in [q]
    (i.e. [q] is a — not necessarily strict — supernet of [p]). *)

val overlaps : t -> t -> bool
(** [overlaps p q] iff the prefixes share at least one address;
    for CIDR prefixes this means one contains the other. *)

val nth : t -> int -> Ipv4.t option
(** [nth p i] is the [i]-th address of [p] ([nth p 0 = network p]),
    or [None] if [i] is negative or beyond the prefix. *)

val split : t -> (t * t) option
(** [split p] halves [p] into its two child prefixes of length
    [length p + 1]; [None] when [p] is a /32. *)

val any : t
(** The default route [0.0.0.0/0]. *)

val host : Ipv4.t -> t
(** [host a] is the /32 containing exactly [a]. *)

val compare : t -> t -> int
(** Total order: by network address (unsigned), then by length, so
    a supernet sorts before its subnets at the same address. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
