(** The simulator's pending-event set: a hierarchical timing wheel
    (3 levels x 256 slots at 2^10/2^18/2^26 us granularity) fronted by
    a due-heap and backed by an overflow heap for the far future.

    The observable contract is unchanged from the binary-heap
    original (kept as [Heap_queue] in the test support library, the
    reference for [test_engine]'s differential suite): pops
    come in (timestamp, insertion sequence number) order, so two
    events at the same timestamp execute in insertion order and runs
    stay deterministic. Scheduling in the past is the caller's
    responsibility: the queue itself is time-agnostic and will happily
    return such an event first.

    Cancellation is O(1) lazy: a cancelled event stays bucketed but is
    dropped when its slot cascades or it surfaces in a heap, and live
    counts are maintained at cancel time so {!size} is O(1). Insertion
    is O(1) (no sift), and {!reschedule} re-aims a timer in place —
    the cancel + reinsert that keepalive/hold/MRAI re-arming used to
    pay on the heap becomes two O(1) bucket operations. *)

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

val pop_until : t -> Time.t -> (Time.t * (unit -> unit) * int) option
(** Like {!pop} but only if the earliest live event is at or before
    the given time. *)

val clear : t -> unit

type occupancy = {
  occ_due : int;  (** live events in the due heap (before [base]) *)
  occ_levels : int array;  (** live timers per wheel level, finest first *)
  occ_overflow : int;  (** live timers beyond the wheel horizon *)
}

val occupancy : t -> occupancy
(** A point-in-time census of where live events sit — the source for
    the [horse_sched_wheel_occupancy{level}] and
    [horse_sched_overflow_heap_size] gauges. O(levels). *)
