(** Annotated experiment traces.

    A lightweight append-only log of (virtual time, label, detail)
    records. The Connection Manager logs control-plane activity here
    and the BGP, OSPF and OpenFlow agents log protocol milestones.
    Nothing in the library or the CLI reads the log back; tests
    inspect it. The FIG1 mode-transition timeline is
    {!Sched.pp_timeline}, built from the scheduler's transitions, not
    from a trace.

    By default the log grows without bound. Pass [~capacity] to
    {!create} for a ring buffer that retains only the newest entries
    and counts what it dropped — the right mode for long FTI-heavy
    runs. *)

type entry = {
  at : Time.t;  (** virtual time of the record *)
  wall : float;  (** wall seconds since trace creation *)
  label : string;  (** category, e.g. ["bgp"], ["mode"], ["cm"] *)
  detail : string;
}

type t

val create : ?capacity:int -> unit -> t
(** Unbounded without [?capacity]; a ring of at most [capacity]
    entries otherwise.
    @raise Invalid_argument if [capacity <= 0]. *)

val bind_registry : t -> Horse_telemetry.Registry.t -> unit
(** Mirrors this trace's totals as [horse_trace_entries_total] and
    [horse_trace_dropped_total] counters in [reg] (past activity is
    credited immediately), so ring-buffer evictions — previously
    visible only via {!dropped} — surface in every metrics export and
    trip the [Report] warning. *)

val add : t -> at:Time.t -> label:string -> string -> unit

val addf :
  t -> at:Time.t -> label:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Formatted variant of {!add}. *)

val entries : t -> entry list
(** Retained entries, chronological (insertion) order. *)

val by_label : t -> string -> entry list

val length : t -> int
(** Retained entry count (bounded by the capacity, if any). *)

val total_added : t -> int
(** Entries ever added, including dropped ones. *)

val dropped : t -> int
(** Entries evicted by the ring buffer; always 0 when unbounded. *)

val capacity : t -> int option

val clear : t -> unit
(** Empties the trace and resets the {!total_added}/{!dropped}
    counters. *)
