(** IPv4 addresses.

    An address is an immutable 32-bit value. All arithmetic treats the
    address as an unsigned integer in network (big-endian) order, so
    [succ (of_string_exn "10.0.0.255") = of_string_exn "10.0.1.0"]. *)

type t
(** An IPv4 address. Structural equality and comparison are meaningful. *)

val of_int32 : int32 -> t
(** [of_int32 n] is the address whose big-endian 32-bit representation
    is [n]. Total: every [int32] is a valid address. *)

val to_int32 : t -> int32
(** [to_int32 a] is the inverse of {!of_int32}. *)

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is the address [a.b.c.d].
    @raise Invalid_argument if any octet is outside [0, 255]. *)

val to_octets : t -> int * int * int * int
(** [to_octets a] is the four dotted-quad octets of [a], each in
    [0, 255]. *)

val of_string : string -> t option
(** [of_string s] parses dotted-quad notation ["a.b.c.d"]. Returns
    [None] on any syntax error (wrong number of fields, empty fields,
    non-digits, octets above 255). *)

val of_string_exn : string -> t
(** Like {!of_string}.
    @raise Invalid_argument on parse failure, with the offending
    string in the message. *)

val to_string : t -> string
(** [to_string a] is dotted-quad notation, e.g. ["192.168.0.1"]. *)

val any : t
(** [0.0.0.0]. *)

val add : t -> int -> t
(** [add a n] offsets [a] by [n] (may be negative), with unsigned
    wrap-around. *)

val compare : t -> t -> int
(** Unsigned order: [0.0.0.1 < 128.0.0.0 < 255.255.255.255]. *)

val equal : t -> t -> bool

val hash : t -> int
(** A well-mixed hash suitable for [Hashtbl]. *)

val pp : Format.formatter -> t -> unit
(** Prints dotted-quad notation. *)
