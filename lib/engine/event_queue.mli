(** The simulator's pending-event set: a binary min-heap.

    Pops come in (timestamp, insertion sequence number) order, so two
    events at the same timestamp execute in insertion order and runs
    stay deterministic. Scheduling in the past is the caller's
    responsibility: the queue itself is time-agnostic and will happily
    return such an event first.

    Cancellation is lazy: a cancelled event stays in the heap until it
    surfaces at the top or a compaction sweep (run once cancelled
    entries outnumber live ones) drops it, and the live count is
    maintained at cancel time so {!size} is O(1). {!reschedule}
    re-aims a timer on the same handle, so keepalive/hold/MRAI
    re-arming needs no fresh handle per period. *)

type t
(** A mutable event queue. *)

type handle
(** Names one scheduled event, for cancellation and re-aiming. *)

val create : unit -> t

val schedule : t -> ?cause:int -> Time.t -> (unit -> unit) -> handle
(** [schedule q at action] enqueues [action] to run at virtual time
    [at]. *)

val cancel : handle -> unit
(** Idempotent. A cancelled event never runs. *)

val is_cancelled : handle -> bool

val reschedule : handle -> Time.t -> unit
(** [reschedule h at] re-aims [h]'s event at [at], reusing its action.
    Equivalent to cancel + schedule — the event takes a fresh sequence
    number, so among same-timestamp peers it runs after events already
    scheduled there — but without growing the handle graph. An event
    that already fired or was cancelled is re-armed. *)

val size : t -> int
(** Number of live (non-cancelled) events. O(1). *)

val is_empty : t -> bool

val next_time : t -> Time.t option
(** Timestamp of the earliest live event, without removing it. *)

val pop : t -> (Time.t * (unit -> unit) * int) option
(** Removes and returns the earliest live event. *)

val clear : t -> unit
