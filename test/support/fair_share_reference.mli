(** The progressive-filling oracle for [Horse_dataplane.Fair_share.Delta].

    The textbook max-min loop: each round either freezes every
    unfrozen flow of the tightest link at that link's fair share, or
    freezes the flows whose demand is below it. It costs
    O(rounds × (flows + links)) and is kept only so that tests and
    smokes can hold the production solver against it. *)

type flow_input = {
  demand : float;  (** offered rate, bps; must be >= 0 *)
  links : int list;  (** directed link ids along the path; [] = unconstrained *)
}

val compute : capacity:(int -> float) -> flow_input array -> float array
(** [compute ~capacity flows] returns the max-min rate of each flow,
    positionally. [capacity] gives the bps capacity of a link id and
    must be positive for every referenced link.

    @raise Invalid_argument on a negative demand or non-positive
    capacity. *)

val link_loads : flow_input array -> float array -> (int * float) list
(** Total allocated rate per link id, ascending by id, for checking
    feasibility. *)
