(* Tests for horse_stats: series, summaries, CSV, ASCII rendering and
   the run report's causal-drop warning. *)

open Horse_engine
open Horse_stats

let check = Alcotest.check
let qtest = Horse_test_support.qtest

module Registry = Horse_telemetry.Registry
module Histogram = Horse_telemetry.Histogram

let series_of samples =
  let s = Series.create () in
  List.iter (fun (ms, v) -> Series.add s (Time.of_ms ms) v) samples;
  s

let test_series_basics () =
  let s = series_of [ (0, 1.0); (100, 2.0); (200, 3.0) ] in
  check Alcotest.int "length" 3 (Series.length s);
  check (Alcotest.float 1e-9) "mean" 2.0 (Series.mean s);
  check (Alcotest.float 1e-9) "max" 3.0 (Series.max_value s);
  check Alcotest.bool "last" true
    (match Series.last s with Some (_, v) -> v = 3.0 | None -> false)

(* [map] keeps every timestamp, so the samples between two times are the
   same samples before and after mapping. *)
let test_series_between_and_map () =
  let s = series_of [ (0, 1.0); (100, 2.0); (200, 3.0); (300, 4.0) ] in
  let doubled = Series.map s ~f:(fun v -> 2.0 *. v) in
  check (Alcotest.float 1e-9) "map mean" 5.0 (Series.mean doubled);
  let between series =
    List.filter_map
      (fun (t, v) ->
        let ms = Time.to_ms t in
        if ms >= 100.0 && ms <= 200.0 then Some v else None)
      (Series.to_list series)
  in
  check (Alcotest.list (Alcotest.float 1e-9)) "between" [ 4.0; 6.0 ] (between doubled);
  check (Alcotest.list (Alcotest.float 1e-9)) "source untouched" [ 2.0; 3.0 ] (between s)

let test_series_monotonic () =
  let s = series_of [ (100, 1.0) ] in
  Alcotest.check_raises "non-monotonic rejected"
    (Invalid_argument "Series.add: non-monotonic timestamp") (fun () ->
      Series.add s (Time.of_ms 50) 2.0)

let test_summary () =
  let s = Summary.of_list [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  check Alcotest.int "count" 8 s.Summary.count;
  check (Alcotest.float 1e-9) "mean" 5.0 s.Summary.mean;
  check (Alcotest.float 1e-9) "stddev" 2.0 s.Summary.stddev;
  check (Alcotest.float 1e-9) "min" 2.0 s.Summary.min;
  check (Alcotest.float 1e-9) "max" 9.0 s.Summary.max;
  let empty = Summary.of_list [] in
  check Alcotest.int "empty count" 0 empty.Summary.count

let test_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check (Alcotest.float 1e-9) "p0" 1.0 (Summary.percentile xs 0.0);
  check (Alcotest.float 1e-9) "p50" 3.0 (Summary.percentile xs 50.0);
  check (Alcotest.float 1e-9) "p100" 5.0 (Summary.percentile xs 100.0);
  check (Alcotest.float 1e-9) "p25 interpolates" 2.0 (Summary.percentile xs 25.0);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Summary.percentile: p outside [0,100]") (fun () ->
      ignore (Summary.percentile xs 101.0))

(* The file [Csv.save_series] writes for [series]. *)
let csv_of series =
  let path = Filename.temp_file "horse_csv" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.save_series ~path series;
      In_channel.with_open_bin path In_channel.input_all)

let test_csv () =
  let a = series_of [ (0, 1.0); (500, 2.0) ] in
  let b = series_of [ (0, 3.0); (500, 4.0) ] in
  let lines = String.split_on_char '\n' (String.trim (csv_of [ ("a", a); ("b", b) ])) in
  check Alcotest.int "rows" 3 (List.length lines);
  check Alcotest.string "header" "time_s,a,b" (List.hd lines);
  check Alcotest.string "first row" "0.000000,1,3" (List.nth lines 1)

let test_csv_escaping () =
  let a = series_of [ (0, 1.0) ] in
  let out = csv_of [ ("a,b", a); ("q\"uote", a) ] in
  check Alcotest.string "comma and quote quoted" "time_s,\"a,b\",\"q\"\"uote\""
    (List.hd (String.split_on_char '\n' out))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_plot_and_bars_render () =
  let s = series_of [ (0, 0.0); (1000, 5.0); (2000, 2.5) ] in
  let out = Format.asprintf "%t" (fun fmt -> Ascii.plot fmt [ ("demo", s) ]) in
  check Alcotest.bool "plot mentions legend" true
    (String.length out > 100 && contains out "demo");
  let bars =
    Format.asprintf "%t" (fun fmt ->
        Ascii.bar_chart fmt [ ("horse", 10.0); ("mininet", 50.0) ])
  in
  check Alcotest.bool "bar chart renders" true (String.length bars > 20)

let test_histogram_buckets () =
  let h = Histogram.create_log ~lo:1.0 ~hi:1000.0 () in
  Histogram.add_list h [ 0.5; 1.5; 2.0; 15.0; 500.0; 5000.0 ];
  check Alcotest.int "total" 6 (Histogram.count h);
  check Alcotest.int "underflow" 1 (Histogram.underflow h);
  check Alcotest.int "overflow" 1 (Histogram.overflow h);
  (* Three buckets per decade: 1.5 and 2.0 fall in [1, 2.15), 15.0 in
     [10, 21.5) and 500.0 in [464, 1000). *)
  check (Alcotest.list Alcotest.int) "counts" [ 2; 0; 0; 1; 0; 0; 0; 0; 1 ]
    (List.map (fun (_, _, c) -> c) (Histogram.buckets h));
  let out = Format.asprintf "%a" Histogram.pp h in
  check Alcotest.bool "renders" true (String.length out > 20)

let prop_histogram_conserves =
  qtest ~count:100 "histogram: buckets + under + over = total"
    QCheck2.Gen.(list_size (int_range 0 300) (float_range 0.0001 100000.0))
    (fun vs ->
      let h = Histogram.create_log ~lo:0.001 ~hi:10000.0 () in
      Histogram.add_list h vs;
      let bucketed =
        List.fold_left (fun acc (_, _, c) -> acc + c) 0 (Histogram.buckets h)
      in
      bucketed + Histogram.underflow h + Histogram.overflow h = Histogram.count h
      && Histogram.count h = List.length vs)

let test_report_causal_drops () =
  let sched = Sched.create () in
  ignore (Sched.snapshot sched);
  let reg = Sched.registry sched in
  let report () = Format.asprintf "%a" Report.pp reg in
  check Alcotest.bool "no drops, no warning" false
    (contains (report ()) "WARNING");
  (match Registry.find_counter reg "horse_causal_dropped_total" with
  | Some c -> Registry.Counter.add c 3
  | None -> Alcotest.fail "horse_causal_dropped_total not exported");
  check Alcotest.bool "drops warn" true
    (contains (report ()) "WARNING: causal graph dropped 3 nodes")

let () =
  Alcotest.run "horse_stats"
    [
      ( "series",
        [
          Alcotest.test_case "basics" `Quick test_series_basics;
          Alcotest.test_case "between/map" `Quick test_series_between_and_map;
          Alcotest.test_case "monotonic enforcement" `Quick test_series_monotonic;
        ] );
      ( "summary",
        [
          Alcotest.test_case "moments" `Quick test_summary;
          Alcotest.test_case "percentiles" `Quick test_percentile;
        ] );
      ( "csv",
        [
          Alcotest.test_case "series export" `Quick test_csv;
          Alcotest.test_case "escaping" `Quick test_csv_escaping;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "log buckets" `Quick test_histogram_buckets;
          prop_histogram_conserves;
        ] );
      ( "ascii",
        [
          Alcotest.test_case "plot and bars" `Quick test_plot_and_bars_render;
        ] );
      ( "report",
        [
          Alcotest.test_case "causal drops warn" `Quick
            test_report_causal_drops;
        ] );
    ]
