(** The process-wide wall-clock source.

    Every wall-time reading in the tree — {!Span} trackers, the
    scheduler's {!Horse_engine.Wall}, histogram timings — goes through
    this one function, so tests can substitute a deterministic clock
    and observe a single source. The default source is
    [Unix.gettimeofday]. *)

val now : unit -> float
(** Seconds since an arbitrary epoch, sub-millisecond resolution under
    the default source. *)

val with_source : (unit -> float) -> (unit -> 'a) -> 'a
(** [with_source src f] runs [f] with [src] installed, restoring the
    previous source afterwards (exception-safe). *)
