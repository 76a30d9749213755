module Registry = Horse_telemetry.Registry
module Span = Horse_telemetry.Span
module Histogram = Horse_telemetry.Histogram

let label_suffix = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
      ^ "}"

let display (e : Registry.entry) = e.Registry.name ^ label_suffix e.Registry.labels

let pp fmt reg =
  let entries = Registry.to_list reg in
  let counters =
    List.filter_map
      (fun (e : Registry.entry) ->
        match e.Registry.metric with
        | Registry.M_counter c ->
            Some (display e, float_of_int (Registry.Counter.value c))
        | Registry.M_gauge _ | Registry.M_histogram _ -> None)
      entries
  in
  let gauges =
    List.filter_map
      (fun (e : Registry.entry) ->
        match e.Registry.metric with
        | Registry.M_gauge g -> Some (display e, Registry.Gauge.value g)
        | Registry.M_counter _ | Registry.M_histogram _ -> None)
      entries
  in
  let histograms =
    List.filter_map
      (fun (e : Registry.entry) ->
        match e.Registry.metric with
        | Registry.M_histogram h -> Some (display e, h)
        | Registry.M_counter _ | Registry.M_gauge _ -> None)
      entries
  in
  Format.fprintf fmt "== run report ==@\n";
  if counters <> [] then begin
    Format.fprintf fmt "@\ncounters:@\n";
    Ascii.bar_chart fmt counters
  end;
  if gauges <> [] then begin
    let w =
      List.fold_left (fun acc (n, _) -> max acc (String.length n)) 0 gauges
    in
    Format.fprintf fmt "@\ngauges:@\n";
    List.iter
      (fun (n, v) -> Format.fprintf fmt "  %-*s %g@\n" w n v)
      gauges
  end;
  List.iter
    (fun (n, h) ->
      Format.fprintf fmt "@\n%s (count %d, sum %g):@\n%a@\n" n
        (Histogram.count h) (Histogram.sum h) Histogram.pp h)
    histograms;
  let spans = Span.records (Registry.spans reg) in
  if spans <> [] then
    Format.fprintf fmt "@\nspans:@\n%a@\n" Span.pp (Registry.spans reg);
  (match
     ( Registry.find_counter reg ~labels:[ ("kind", "announce") ]
         "horse_bgp_updates_suppressed_total",
       Registry.find_counter reg ~labels:[ ("kind", "withdraw") ]
         "horse_bgp_updates_suppressed_total",
       Registry.find_counter reg "horse_bgp_prefixes_sent_total" )
   with
  | Some announce, Some withdraw, Some sent ->
      Format.fprintf fmt
        "@\nbgp adj-rib-out: %d announcements of a held record and %d \
         withdrawals of an unheld prefix suppressed (%d prefixes \
         announced)@\n"
        (Registry.Counter.value announce)
        (Registry.Counter.value withdraw)
        (Registry.Counter.value sent)
  | _ -> ());
  (match Registry.find_counter reg "horse_causal_dropped_total" with
  | Some c when Registry.Counter.value c > 0 ->
      Format.fprintf fmt
        "@\nWARNING: causal graph dropped %d nodes \
         (horse_causal_dropped_total) — it reached its node cap; later \
         occurrences root fresh chains, so provenance and --explain are \
         incomplete@\n"
        (Registry.Counter.value c)
  | Some _ | None -> ())
