(** Metrics registries.

    A registry holds named metrics — monotonic {!Counter}s, settable
    {!Gauge}s and log-bucketed {!Histogram}s — plus one {!Span}
    tracker. Metric names follow the [horse_<subsystem>_<name>]
    convention and may carry Prometheus-style labels; registration is
    get-or-register, so any module can ask for
    [counter reg ~subsystem:"bgp" "updates_sent_total"] and all
    callers share the same cell.

    Each {!Horse_engine.Sched} (and therefore each
    [Horse_core.Experiment]) owns a registry by default so concurrent
    experiments in one process do not collide. *)

module Counter : sig
  type t

  val incr : t -> unit

  val add : t -> int -> unit
  (** @raise Invalid_argument on a negative increment — counters are
      monotonic. *)

  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

type metric =
  | M_counter of Counter.t
  | M_gauge of Gauge.t
  | M_histogram of Histogram.t

type entry = {
  name : string;  (** full name, [horse_<subsystem>_<name>] *)
  labels : (string * string) list;  (** sorted by label key *)
  help : string;
  metric : metric;
}

type t

val create : unit -> t

val counter :
  t -> subsystem:string -> ?help:string -> ?labels:(string * string) list ->
  string -> Counter.t

val gauge :
  t -> subsystem:string -> ?help:string -> ?labels:(string * string) list ->
  string -> Gauge.t

val histogram :
  t -> subsystem:string -> ?help:string -> ?labels:(string * string) list ->
  ?buckets_per_decade:int -> lo:float -> hi:float -> string -> Histogram.t

(** All three raise [Invalid_argument] if the name contains characters
    outside [[a-z0-9_]], or if the same (name, labels) pair was
    already registered with a different metric kind. *)

val spans : t -> Span.tracker

val to_list : t -> entry list
(** Every registered metric, in registration order. *)

val find_counter : t -> ?labels:(string * string) list -> string -> Counter.t option
val find_gauge : t -> ?labels:(string * string) list -> string -> Gauge.t option
val find_histogram :
  t -> ?labels:(string * string) list -> string -> Histogram.t option
(** Lookup by full name and labels (label order irrelevant). *)

val cardinality : t -> int
(** Number of registered metrics (not counting spans). *)

