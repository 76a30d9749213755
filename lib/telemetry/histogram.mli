(** Fixed-bucket histograms with logarithmic bucketing and a terminal
    rendering, for latency/FCT distributions.

    This module lives at the bottom of the dependency stack so the
    telemetry registry can use it. *)

type t

val create_log : ?buckets_per_decade:int -> lo:float -> hi:float -> unit -> t
(** Logarithmic buckets covering [lo, hi] (default 3 buckets per
    decade), plus underflow and overflow buckets.
    @raise Invalid_argument unless [0 < lo < hi]. *)

val add : t -> float -> unit
val add_list : t -> float list -> unit

val count : t -> int
val underflow : t -> int
val overflow : t -> int

val sum : t -> float
(** Sum of every observed value (including under/overflow). *)

val buckets : t -> (float * float * int) list
(** [(lo, hi, count)] per bucket, ascending. *)

val cumulative : t -> (float * int) list
(** Prometheus-style cumulative counts: [(upper_bound, samples <=
    upper_bound)] per bucket edge, ending with [(infinity, count)]. *)

val pp : Format.formatter -> t -> unit
(** Bars scaled to the fullest bucket; empty leading/trailing buckets
    are skipped. *)
