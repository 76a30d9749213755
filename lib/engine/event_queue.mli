(** The simulator's pending-event set: an indexed binary min-heap.

    Pops come in (timestamp, insertion sequence number) order, so two
    events at the same timestamp execute in insertion order and runs
    stay deterministic. Scheduling in the past is the caller's
    responsibility: the queue itself is time-agnostic and will happily
    return such an event first.

    Each queued event knows its heap position, so cancellation removes
    it at once and the heap only ever holds live events. {!reschedule}
    re-keys a timer where it stands, so keepalive/hold/MRAI re-arming
    allocates nothing and leaves nothing behind. *)

type t
(** A mutable event queue. *)

type handle
(** One scheduled event, for cancellation and re-aiming. {!pop}
    returns it too. *)

val create : unit -> t

val schedule : t -> cause:int -> Time.t -> (unit -> unit) -> handle
(** [schedule q ~cause at action] enqueues [action] to run at virtual
    time [at]. [cause] is an opaque causal id handed back by {!cause}
    ({!Causal.none} for none); it is a required label so that a
    scheduler passing its ambient cause boxes no option per event. *)

val cancel : handle -> unit
(** Removes the event from the queue. Idempotent. A cancelled event
    never runs. *)

val is_cancelled : handle -> bool
(** [true] after {!cancel}, until a {!reschedule} re-arms the event.
    An event that fired is not cancelled. *)

val reschedule : handle -> Time.t -> unit
(** [reschedule h at] re-aims [h]'s event at [at], reusing its action.
    Equivalent to cancel + schedule — the event takes a fresh sequence
    number, so among same-timestamp peers it runs after events already
    scheduled there — but done in place: O(log n) and no allocation.
    An event that already fired or was cancelled is re-armed. *)

val size : t -> int
(** Number of queued events; cancelled ones have already left. O(1). *)

val is_empty : t -> bool

val next_time : t -> Time.t
(** Timestamp of the earliest event, without removing it.
    @raise Invalid_argument on an empty queue. *)

val pop : t -> handle
(** Removes and returns the earliest event. Allocates nothing.
    @raise Invalid_argument on an empty queue. *)

val time : handle -> Time.t
(** The time the event is, or last was, due. *)

val action : handle -> unit -> unit
val cause : handle -> int
(** The causal id given to {!schedule}. *)
