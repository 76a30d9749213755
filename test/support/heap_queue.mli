(** Reference event queue: the binary min-heap
    {!Horse_engine.Event_queue} used before the timing wheel, kept for
    the differential test suite.

    Semantics are contractually identical to
    {!Horse_engine.Event_queue} — a pop stream ordered by (timestamp,
    insertion sequence), lazy O(1) cancellation, O(1) {!size}, and
    in-place {!reschedule} — so any divergence between the two under
    the same operation sequence is a bug in the wheel. It lives in the
    test support library so that no production code can depend on
    it. *)

open Horse_engine

type t
type handle

val create : unit -> t
val schedule : t -> Time.t -> (unit -> unit) -> handle
val cancel : handle -> unit
val is_cancelled : handle -> bool

val reschedule : handle -> Time.t -> unit
(** Re-aims the event at a new time, reusing its action. Equivalent to
    cancel + schedule (the event takes a fresh sequence number), and
    re-arms events that already fired or were cancelled. *)

val size : t -> int
val is_empty : t -> bool
val next_time : t -> Time.t option
val pop : t -> (Time.t * (unit -> unit)) option
val pop_until : t -> Time.t -> (Time.t * (unit -> unit)) option
val clear : t -> unit
