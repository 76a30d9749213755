(** A fire-once condition latch, checked at the end of an instant.

    A subsystem whose readiness is a condition over its own state (a
    routed fabric's FIBs resolve every originated prefix, a P4
    fabric's inserts are all acknowledged) keeps that condition cheap
    to evaluate and calls {!poke} whenever a change may have made it
    true. The latch then re-checks it once at the end of the current
    instant ({!Sched.defer}) and, if it still holds, runs its
    callbacks exactly once, at that instant. Nothing polls. *)

type t

val create : ?on_fire:(unit -> unit) -> Sched.t -> (unit -> bool) -> t
(** [create sched holds] is an unfired latch over [holds], which must
    be cheap: {!poke} evaluates it on every call. [on_fire] runs first
    when the latch fires (e.g. to record the instant in a gauge). *)

val on : t -> (unit -> unit) -> unit
(** [on t k] runs [k] when the latch fires, after the callbacks
    registered before it, or now if it has already fired. Callbacks
    run under the ambient cause of the first registration, as a
    {!Sched.every} armed there would. *)

val poke : t -> unit
(** The condition may have changed: if it holds, a callback is
    registered and the latch is unfired, queue one end-of-instant
    re-check (at most one per instant). *)
