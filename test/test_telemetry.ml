(* Tests for horse_telemetry: the registry, spans, the JSON codec and
   the three exporters. *)

module Registry = Horse_telemetry.Registry
module Counter = Registry.Counter
module Gauge = Registry.Gauge
module Histogram = Horse_telemetry.Histogram
module Span = Horse_telemetry.Span
module Clock = Horse_telemetry.Clock
module Export = Horse_telemetry.Export
module Json = Horse_telemetry.Json

let check = Alcotest.check

(* --- registry --------------------------------------------------------- *)

let test_get_or_register () =
  let reg = Registry.create () in
  let a = Registry.counter reg ~subsystem:"bgp" "updates_total" in
  let b = Registry.counter reg ~subsystem:"bgp" "updates_total" in
  Counter.incr a;
  Counter.incr b;
  check Alcotest.int "same cell" 2 (Counter.value a);
  check Alcotest.int "one entry" 1 (Registry.cardinality reg);
  (* Distinct label sets are distinct metrics under one name. *)
  let tx =
    Registry.counter reg ~subsystem:"bgp" ~labels:[ ("dir", "tx") ] "msgs_total"
  in
  let rx =
    Registry.counter reg ~subsystem:"bgp" ~labels:[ ("dir", "rx") ] "msgs_total"
  in
  Counter.incr tx;
  check Alcotest.int "labels separate cells" 0 (Counter.value rx);
  check Alcotest.int "three entries" 3 (Registry.cardinality reg)

let test_name_prefix_and_validation () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~subsystem:"sched" "events_total" in
  ignore c;
  (match Registry.to_list reg with
  | [ e ] ->
      check Alcotest.string "prefixed name" "horse_sched_events_total"
        e.Registry.name
  | _ -> Alcotest.fail "expected one entry");
  Alcotest.check_raises "bad characters rejected"
    (Invalid_argument "Registry: bad metric name Bad-Name") (fun () ->
      ignore (Registry.counter reg ~subsystem:"x" "Bad-Name"))

let test_kind_mismatch () =
  let reg = Registry.create () in
  ignore (Registry.counter reg ~subsystem:"a" "thing");
  let raised =
    try
      ignore (Registry.gauge reg ~subsystem:"a" "thing");
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "kind mismatch raises" true raised

let test_counter_gauge_histogram () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~subsystem:"t" "c_total" in
  Counter.incr c;
  Counter.add c 4;
  check Alcotest.int "counter" 5 (Counter.value c);
  Alcotest.check_raises "counters are monotonic"
    (Invalid_argument "Registry.Counter.add: negative increment") (fun () ->
      Counter.add c (-1));
  let g = Registry.gauge reg ~subsystem:"t" "g" in
  Gauge.set g 2.5;
  Gauge.add g (-1.0);
  check (Alcotest.float 1e-9) "gauge" 1.5 (Gauge.value g);
  let h = Registry.histogram reg ~subsystem:"t" ~lo:1e-3 ~hi:1.0 "h_seconds" in
  Histogram.add h 0.01;
  Histogram.add h 0.02;
  Histogram.add h 5.0;
  check Alcotest.int "histogram count" 3 (Histogram.count h);
  check (Alcotest.float 1e-9) "histogram sum" 5.03 (Histogram.sum h);
  (* The shared cell is findable by full name. *)
  match Registry.find_histogram reg "horse_t_h_seconds" with
  | Some h' -> check Alcotest.int "find_histogram" 3 (Histogram.count h')
  | None -> Alcotest.fail "histogram not found"

(* --- spans ------------------------------------------------------------ *)

let test_span_nesting () =
  let tr = Span.create_tracker () in
  let outer = Span.enter tr ~name:"outer" ~at_us:0L in
  let inner = Span.enter tr ~name:"inner" ~at_us:100L in
  Span.exit tr inner ~at_us:300L;
  Span.exit tr outer ~at_us:1000L;
  match Span.records tr with
  | [ o; i ] ->
      check Alcotest.string "outer first (virtual start order)" "outer"
        o.Span.name;
      check Alcotest.int "outer depth" 0 o.Span.depth;
      check Alcotest.int "inner depth" 1 i.Span.depth;
      check (Alcotest.option Alcotest.string) "inner parent" (Some "outer")
        i.Span.parent;
      check (Alcotest.float 1e-9) "inner virtual duration" 200e-6
        (Span.virtual_duration_s i);
      check (Alcotest.float 1e-9) "outer virtual duration" 1e-3
        (Span.virtual_duration_s o);
      check Alcotest.bool "wall monotone" true (Span.wall_duration_s o >= 0.0)
  | rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs)

let test_span_implicit_close_and_with_span () =
  let tr = Span.create_tracker () in
  let outer = Span.enter tr ~name:"outer" ~at_us:0L in
  let _inner = Span.enter tr ~name:"inner" ~at_us:10L in
  (* Exiting the outer span closes the still-open inner one. *)
  Span.exit tr outer ~at_us:50L;
  check Alcotest.int "both closed" 2 (List.length (Span.records tr));
  check Alcotest.int "none open" 0 (Span.open_count tr);
  let clock = ref 0L in
  let r =
    Span.with_span tr ~name:"work" ~now_us:(fun () -> !clock) (fun () ->
        clock := 42L;
        "result")
  in
  check Alcotest.string "with_span returns" "result" r;
  check Alcotest.int "with_span recorded" 3 (List.length (Span.records tr))

(* --- Wall clock source ------------------------------------------------ *)

let test_clock_source () =
  (* Every wall-clock read in the tree goes through Clock; swapping
     the source makes wall timing deterministic for tests. *)
  let real = Clock.now () in
  check Alcotest.bool "default source is real time" true (real > 0.0);
  let fake = ref 100.0 in
  let inside =
    Clock.with_source
      (fun () -> !fake)
      (fun () ->
        let a = Clock.now () in
        fake := 107.5;
        let b = Clock.now () in
        (a, b))
  in
  check (Alcotest.pair (Alcotest.float 0.0) (Alcotest.float 0.0))
    "scoped source is read on every call" (100.0, 107.5) inside;
  check Alcotest.bool "source restored after with_source" true
    (Clock.now () >= real);
  (* Restored even when the thunk raises. *)
  (try
     Clock.with_source (fun () -> 1.0) (fun () -> failwith "boom")
   with Failure _ -> ());
  check Alcotest.bool "source restored after raise" true (Clock.now () >= real)

(* --- JSON codec ------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("name", Json.String "horse \"x\"\nline");
        ("n", Json.Int 42);
        ("f", Json.Float 1.5);
        ("ok", Json.Bool true);
        ("nothing", Json.Null);
        ("xs", Json.List [ Json.Int 1; Json.Int 2 ]);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok v' ->
      check Alcotest.string "roundtrip" (Json.to_string v) (Json.to_string v');
      (match Json.member "n" v' with
      | Some (Json.Int 42) -> ()
      | _ -> Alcotest.fail "member lookup");
      check Alcotest.bool "trailing junk rejected" true
        (Result.is_error (Json.parse "{} trailing"));
      check Alcotest.string "nan encodes as null" "null"
        (Json.to_string (Json.Float Float.nan))

(* --- exporters -------------------------------------------------------- *)

(* A small fixed registry whose exporter output is stable. *)
let golden_registry () =
  let reg = Registry.create () in
  let c =
    Registry.counter reg ~subsystem:"bgp" ~help:"Messages"
      ~labels:[ ("dir", "tx") ] "messages_total"
  in
  Counter.add c 7;
  let g = Registry.gauge reg ~subsystem:"sched" ~help:"Mode" "mode" in
  Gauge.set g 1.0;
  ignore (Span.enter (Registry.spans reg) ~name:"run" ~at_us:0L);
  reg

let test_prometheus_golden () =
  let reg = golden_registry () in
  let out = Format.asprintf "%a" Export.prometheus reg in
  let expected_lines =
    [
      "# HELP horse_bgp_messages_total Messages";
      "# TYPE horse_bgp_messages_total counter";
      "horse_bgp_messages_total{dir=\"tx\"} 7";
      "# HELP horse_sched_mode Mode";
      "# TYPE horse_sched_mode gauge";
      "horse_sched_mode 1";
    ]
  in
  List.iter
    (fun line ->
      let found =
        List.exists (String.equal line) (String.split_on_char '\n' out)
      in
      if not found then Alcotest.failf "missing line %S in:\n%s" line out)
    expected_lines

let test_histogram_prometheus_expansion () =
  let reg = Registry.create () in
  let h =
    Registry.histogram reg ~subsystem:"x" ~lo:0.1 ~hi:10.0
      "h_seconds"
  in
  Histogram.add h 0.05;
  (* underflow: still counted in every bucket *)
  Histogram.add h 0.5;
  Histogram.add h 99.0;
  (* overflow: only in +Inf *)
  let out = Format.asprintf "%a" Export.prometheus reg in
  let has s =
    let lines = String.split_on_char '\n' out in
    List.exists (String.equal s) lines
  in
  check Alcotest.bool "le=1 cumulative" true
    (has "horse_x_h_seconds_bucket{le=\"1\"} 2");
  check Alcotest.bool "+Inf equals count" true
    (has "horse_x_h_seconds_bucket{le=\"+Inf\"} 3");
  check Alcotest.bool "count line" true (has "horse_x_h_seconds_count 3")

let test_jsonl_golden () =
  let reg = golden_registry () in
  let out = Format.asprintf "%a" Export.jsonl reg in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out)
  in
  check Alcotest.bool "at least the two metrics" true (List.length lines >= 2);
  List.iter
    (fun line ->
      match Export.validate_jsonl_line line with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid line %S: %s" line e)
    lines;
  (* First line is the counter, with its labels. *)
  match Json.parse (List.hd lines) with
  | Ok j ->
      (match Json.member "type" j with
      | Some (Json.String "counter") -> ()
      | _ -> Alcotest.fail "first line should be the counter");
      (match Json.member "value" j with
      | Some (Json.Int 7) -> ()
      | _ -> Alcotest.fail "counter value 7")
  | Error e -> Alcotest.failf "unparseable first line: %s" e

let test_json_snapshot () =
  let reg = golden_registry () in
  match Export.json reg with
  | Json.Obj fields ->
      check Alcotest.bool "has metrics" true (List.mem_assoc "metrics" fields);
      check Alcotest.bool "has spans" true (List.mem_assoc "spans" fields)
  | _ -> Alcotest.fail "expected an object"

let () =
  Alcotest.run "horse_telemetry"
    [
      ( "registry",
        [
          Alcotest.test_case "get-or-register" `Quick test_get_or_register;
          Alcotest.test_case "naming" `Quick test_name_prefix_and_validation;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "counter/gauge/histogram" `Quick
            test_counter_gauge_histogram;
        ] );
      ( "span",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "implicit close + with_span" `Quick
            test_span_implicit_close_and_with_span;
        ] );
      ("clock", [ Alcotest.test_case "swappable source" `Quick test_clock_source ]);
      ("json", [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip ]);
      ( "export",
        [
          Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
          Alcotest.test_case "histogram expansion" `Quick
            test_histogram_prometheus_expansion;
          Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden;
          Alcotest.test_case "json snapshot" `Quick test_json_snapshot;
        ] );
    ]
