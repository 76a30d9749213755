(** Deterministic pseudo-random numbers (splitmix64).

    Experiments must be reproducible run-to-run, so every source of
    randomness in the library goes through an explicitly seeded
    generator rather than [Stdlib.Random]. *)

type t

val create : int -> t
(** [create seed] is a fresh generator; equal seeds give equal
    streams. *)

val split_key : t -> string -> t
(** [split_key t key] is a generator determined only by [t]'s current
    state and [key] — the parent is {e not} advanced, so derived
    streams are order-independent: adding or removing one keyed stream
    never perturbs another's draw sequence. Used for per-fault-site
    streams in {!Horse_faults}. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform random permutation of [0, n). *)

val derangement : t -> int -> int array
(** [derangement t n] is a permutation with no fixed points — the
    "each server sends to another server" traffic pattern of the
    demonstration. For [n = 1] there is no derangement; the identity
    is returned.
    Sampled by rejection, uniform over derangements. *)
