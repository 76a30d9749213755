(** Terminal rendering of measurement results — the demonstration's
    "graph of the aggregated rate of all flows" as ASCII art. *)

val sparkline : float list -> string
(** One line of block characters scaled to the sample's own range,
    e.g. ["▁▃▅▇█"]. Empty string for the empty list. *)

val plot : ?height:int -> Format.formatter -> (string * Series.t) list -> unit
(** Multi-series scatter/line chart. Each series gets a distinct
    glyph; the legend maps glyphs to the given labels. Time axis in
    seconds. Series are resampled onto 72 columns by averaging the
    samples that fall in each column. *)

val bar_chart : Format.formatter -> (string * float) list -> unit
(** Horizontal bars scaled to the maximum value (50 columns), for the
    Figure 3 execution-time comparison. *)
