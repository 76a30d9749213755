(** Chrome-trace-event (Perfetto) JSON export.

    Writes a [{"traceEvents": [...]}] file that loads directly in
    {{:https://ui.perfetto.dev}ui.perfetto.dev} (or
    [chrome://tracing]), with timestamps in {b virtual} microseconds:

    - a {b spans} track: every completed [Horse_telemetry.Span] as a
      complete ("X") slice, named and nested as recorded;
    - a {b mode} track: the DES/FTI residency as back-to-back slices
      rebuilt from the scheduler's transition list, plus one instant
      ("i") event per transition carrying its reason;
    - one track per causal subsystem ([chan], [bgp], [fault], [fib],
      ...): each {!Horse_engine.Causal} node as a 1 µs slice, with a
      flow arrow ("s"/"f" pair) from its parent's slice — the arrows
      render the provenance chains across tracks.

    Only the newest 50_000 causal nodes are exported so a storm run
    cannot produce a file the UI chokes on; arrows into the dropped
    prefix are omitted, and the dropped prefix is never formatted. *)

val write :
  path:string ->
  ?graph:Horse_engine.Causal.t ->
  spans:Horse_telemetry.Span.record list ->
  transitions:Horse_engine.Sched.transition list ->
  end_time:Horse_engine.Time.t ->
  unit ->
  unit
(** Writes the file atomically enough for our purposes (single
    [open_out]/[close_out]). [end_time] closes the final mode slice. *)
