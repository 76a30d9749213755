(** Virtual (simulated) time.

    Time is a count of microseconds since the start of the experiment,
    held in an immediate [int], so computing one allocates nothing. All experiment-facing APIs accept and return
    this type; wall-clock time (the thing Horse saves) is measured
    separately by {!Wall}. *)

type t [@@immediate]
(** Microseconds since experiment start. Always non-negative in values
    produced by the engine; arithmetic is unchecked. *)

val zero : t
val of_us : int -> t
val of_ms : int -> t
val of_sec : float -> t

val to_us : t -> int
val to_ms : t -> float
val to_sec : t -> float

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] may be negative; compare with {!zero} when in doubt. *)

val mul : t -> int -> t
val div : t -> int -> t

val min : t -> t -> t
val max : t -> t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Human-oriented rendering: ["1.500s"], ["250ms"], ["10us"]. *)
