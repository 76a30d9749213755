(** Traffic-matrix generators for million-user workloads.

    A traffic matrix gives the aggregate offered rate between every
    ordered pair of sites; one cell becomes one {e flow class} in the
    fluid data plane (a single fluid flow standing for all of a site's
    users of a service). Two classic generators are provided: the
    {b gravity model} — demand between two sites proportional to the
    product of their masses (population, server count) — and a
    {b diurnal cycle} ({!diurnal_factor}) that scales demand over the
    time of day, with per-site phase offsets modelling time zones. *)

type t

val n : t -> int
(** Number of sites. *)

val demand : t -> src:int -> dst:int -> float
(** Offered rate, bps; 0 on the diagonal.
    @raise Invalid_argument out of range. *)

val total : t -> float
(** Sum of all demands. *)

val iter : t -> (src:int -> dst:int -> float -> unit) -> unit
(** Visit every strictly positive cell in row-major order. *)

val zipf_masses : int -> float array
(** [zipf_masses n] is [1/rank] for ranks 1 to [n]: the heavy-tailed
    city-size distribution CDN populations follow.
    @raise Invalid_argument on [n < 1]. *)

val gravity : total:float -> masses:float array -> t
(** Gravity model: cell (i, j), i <> j, proportional to
    [masses.(i) *. masses.(j)], renormalised so all cells sum to
    [total] bps.
    @raise Invalid_argument on fewer than 2 masses, a negative mass,
    an all-zero product set, or [total <= 0]. *)

val diurnal_factor : period_s:float -> phase:float -> float -> float
(** [diurnal_factor ~period_s ~phase t_s] is the time-of-day demand
    multiplier at [t_s] seconds: a raised cosine peaking at 1.0 once
    per period (at whole cycles plus [phase] — phase is in cycles, so
    0.25 shifts the peak by a quarter period) and bottoming out at
    0.2 half a period later.
    @raise Invalid_argument on [period_s <= 0]. *)
