(** Nested region timing against both clocks.

    A span records one named region of a run — "setup", "experiment
    run", "spf" — with its start and end in {b virtual} time (the
    scheduler clock, passed in as integer microseconds so this library
    can sit below the engine) and in {b wall} time (sampled here).
    Spans nest: entering while another span is open records the new
    one as its child.

    Virtual timestamps are [int64] microseconds — exactly the
    representation of [Horse_engine.Time.t]; callers above the engine
    convert with [Time.to_us]. *)

type tracker
type handle

type record = {
  name : string;
  depth : int;  (** 0 for top-level spans *)
  parent : string option;
  start_us : int64;  (** virtual start, microseconds *)
  end_us : int64;  (** virtual end, microseconds *)
  wall_start_s : float;  (** wall seconds since tracker creation *)
  wall_end_s : float;
}

val create_tracker : unit -> tracker

val enter : tracker -> name:string -> at_us:int64 -> handle

val exit : tracker -> handle -> at_us:int64 -> unit
(** Ends the span. Any deeper spans still open are closed at the same
    instant; exiting a handle that is no longer open is a no-op. *)

val with_span :
  tracker -> name:string -> now_us:(unit -> int64) -> (unit -> 'a) -> 'a
(** [with_span tr ~name ~now_us f] brackets [f] in a span, reading
    virtual time from [now_us] on entry and exit (exception-safe). *)

val records : tracker -> record list
(** Completed spans, in virtual start order. *)

val open_count : tracker -> int

val virtual_duration_s : record -> float
val wall_duration_s : record -> float

val pp : Format.formatter -> tracker -> unit
(** Indented by depth, one record per line. *)
