(** Ethernet MAC addresses (48-bit). *)

type t
(** A 48-bit MAC address. *)

val of_int64 : int64 -> t
(** [of_int64 n] keeps the low 48 bits of [n]. *)

val to_int64 : t -> int64
(** The address as an integer in [0, 2^48). *)

val of_string : string -> t option
(** Parses colon-separated hex, e.g. ["00:1b:21:3c:9d:f8"]. Each field
    must be one or two hex digits. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on parse failure. *)

val to_string : t -> string
(** Lower-case colon-separated hex with two digits per field. *)

val broadcast : t
(** [ff:ff:ff:ff:ff:ff]. *)

val zero : t
(** [00:00:00:00:00:00]. *)

val of_index : int -> t
(** [of_index i] is a deterministic locally-administered unicast
    address for node number [i]; distinct for all [i] in [0, 2^40). *)

val equal : t -> t -> bool
