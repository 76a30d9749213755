(** Tuple-space-search rule classifier — the lookup behind
    {!Flow_table}.

    Rules are (match, priority, insertion-seq, value) with the OpenFlow
    match order: priority descending, then seq ascending.  A lookup
    returns the same chosen rule as a linear scan in that order.

    One hash table (bucket) per distinct wildcard mask, probed in
    descending max-priority order with priority short-circuiting:
    O(masks) lookup, O(1) updates. *)

type 'a rule = {
  r_match : Ofmatch.t;
  r_prio : int;
  r_seq : int;
  r_value : 'a;
}

type 'a t

val create : unit -> 'a t

val probes : 'a t -> int
(** Buckets probed by {!lookup} over the classifier's lifetime — the
    work the priority short-circuit saves shows here. *)

val insert : 'a t -> match_:Ofmatch.t -> priority:int -> seq:int -> 'a -> unit
(** [seq] must be unique across the classifier's lifetime — it is the
    equal-priority tie-break and the removal handle. *)

val remove : 'a t -> match_:Ofmatch.t -> seq:int -> unit
(** Precondition: a rule with this match and seq was inserted and not
    yet removed (the flow table tracks membership). *)

val lookup : 'a t -> Ofmatch.fields -> 'a rule option
(** Highest-priority matching rule (oldest wins on ties). *)
