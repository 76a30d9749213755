(** Safe big-endian readers/writers over [Bytes.t] for protocol codecs.

    All readers return [Error] instead of raising when the requested
    range falls outside the buffer, so decoders can be total. Writers
    raise [Invalid_argument] (a codec writing out of bounds is a
    programming error, not an input error). *)

type 'a reader = Bytes.t -> int -> ('a, string) result
(** [r buf off] reads a value at byte offset [off]. *)

val u8 : int reader
val u16 : int reader

val u32 : int32 reader
(** Big-endian 32-bit read (sign-preserving [int32]). *)

val u32_int : int reader
(** Big-endian 32-bit read as a non-negative [int] in [0, 2^32). *)

val bytes : int -> Bytes.t reader
(** [bytes n buf off] copies [n] bytes starting at [off]. *)

val ipv4 : Ipv4.t reader
val mac : Mac.t reader

val set_u8 : Bytes.t -> int -> int -> unit
val set_u16 : Bytes.t -> int -> int -> unit
val set_u32_int : Bytes.t -> int -> int -> unit
(** Writes the low 32 bits of the [int]. *)

val set_ipv4 : Bytes.t -> int -> Ipv4.t -> unit
val set_mac : Bytes.t -> int -> Mac.t -> unit

val check : Bytes.t -> int -> int -> (unit, string) result
(** [check buf off len] is [Ok ()] iff [off, off+len) lies inside
    [buf]; the [Error] names the shortfall. *)

val ( let* ) :
  ('a, string) result -> ('a -> ('b, string) result) -> ('b, string) result
(** Result bind, for sequencing decoder steps. *)
