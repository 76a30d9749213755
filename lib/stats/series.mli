(** Append-only time series of floats, the measurement container used
    by the fluid data plane and the benchmark harness. *)

open Horse_engine

type t

val create : unit -> t

val add : t -> Time.t -> float -> unit
(** Appends a sample. Samples should be added in non-decreasing time
    order; [add] raises [Invalid_argument] otherwise so measurement
    bugs surface early. *)

val length : t -> int
val is_empty : t -> bool

val to_list : t -> (Time.t * float) list
(** Chronological. *)

val last : t -> (Time.t * float) option
val values : t -> float list

val mean : t -> float
(** Arithmetic mean of the values; 0 on an empty series. *)

val max_value : t -> float
(** 0 on an empty series. *)

val integrate : t -> float
(** Step (left-rectangle) integral of value × seconds — e.g. bits for
    a bps series. 0 with fewer than two samples. *)

val between : t -> Time.t -> Time.t -> t
(** Samples with [start <= t <= stop]. *)

val map : t -> f:(float -> float) -> t

val merge_sum : t list -> t
(** Pointwise sum of series sharing identical timestamps; series
    sampled on different grids raise [Invalid_argument]. *)
