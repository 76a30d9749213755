(** CSV export of time series, for offline plotting of the
    reproduced figures. *)

val save_series : path:string -> (string * Series.t) list -> unit
(** Writes [time_s,<name1>,<name2>,...] rows into a file; names
    holding commas, quotes or newlines are escaped per RFC 4180.
    Series must share the same sampling grid (as produced by one
    experiment run); a grid mismatch raises [Invalid_argument]. *)
