(** Descriptive statistics over a sample of floats. *)

type t = {
  count : int;
  mean : float;
  stddev : float;  (** population standard deviation *)
  min : float;
  max : float;
}

val of_list : float list -> t
(** All fields are 0 for the empty list. *)

val percentile : float list -> float -> float
(** [percentile xs p] for [p] in [0, 100], by linear interpolation on
    the sorted sample; 0 on the empty list.
    @raise Invalid_argument if [p] is outside [0, 100]. *)
