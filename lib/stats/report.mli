(** The human run report over a telemetry registry.

    Renders, in order: counters as a horizontal bar chart (scaled to
    the busiest counter), gauges as an aligned table, each histogram
    through {!Horse_telemetry.Histogram.pp}, and the span tree indented by depth with
    both virtual and wall durations. A run with BGP speakers then gets
    one line with the announcements and withdrawals their Adj-RIB-Outs
    suppressed ([horse_bgp_updates_suppressed_total]), and a run whose
    causal graph dropped nodes ([horse_causal_dropped_total] > 0) a
    warning. This is what [horse ... --report] prints after a run. *)

val pp : Format.formatter -> Horse_telemetry.Registry.t -> unit
