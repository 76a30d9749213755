(* Scheduler smoke: the down-scaled fault-storm TE scenario run twice
   through the scheduler's demand-driven pollers and FTI fast-forward.

   Work gates, failing @bench-smoke (and @runtest with it), so they
   pass or fail the same way on a loaded machine as on a quiet one:
   - at most 0.2 poller ticks per FTI increment (stepping every
     increment with every poller would cost 20: one per speaker);
   - at least 90% of FTI increments fast-forwarded rather than
     stepped;
   - determinism: the second run reproduces the mode timeline
     (at/from/to/reason for every transition);
   - the storm heals completely: the final FIB fingerprint equals the
     clean k=4 fabric's.

   Writes the first run's scheduler stats to the path given as
   argv(1). *)

module Time = Horse_engine.Time
module Sched = Horse_engine.Sched
module Scenario = Horse_core.Scenario
module Json = Horse_telemetry.Json

let max_ticks_per_increment = 0.2
let min_skipped_share = 0.9

(* [fib_fingerprint] of the converged, fault-free k=4 BGP fabric. *)
let clean_k4_fib = "0a9e8e63eee7c80d79f89d0181f3255b"

(* The shared smoke storm: flaps plus a node crash/restart, so the run
   alternates control-plane bursts with the quiet FTI windows
   fast-forward exists for. *)
let plan = Horse_test_support.smoke_storm_plan ()

let run () =
  Scenario.run_fat_tree_te ~pods:4 ~te:Scenario.Bgp_ecmp ~faults:plan
    ~duration:(Time.of_sec 20.0) ()

let timeline (r : Scenario.result) =
  List.map
    (fun (tr : Sched.transition) ->
      ( Time.to_us tr.Sched.at,
        Sched.mode_to_string tr.Sched.from_mode,
        Sched.mode_to_string tr.Sched.to_mode,
        tr.Sched.reason ))
    r.Scenario.sched_stats.Sched.transitions

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("sched-smoke: " ^ msg);
      exit 1)
    fmt

let () =
  let out = Sys.argv.(1) in
  let first = run () in
  let second = run () in
  let s = first.Scenario.sched_stats in
  let increments = max 1 s.Sched.fti_increments in
  let ticks_per_increment =
    float_of_int s.Sched.poller_ticks /. float_of_int increments
  in
  let skipped_share =
    float_of_int s.Sched.fti_increments_skipped /. float_of_int increments
  in
  let fib = Option.value first.Scenario.fib_fingerprint ~default:"" in
  let oc = open_out out in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ("poller_ticks", Json.Int s.Sched.poller_ticks);
            ("poller_ticks_saved", Json.Int s.Sched.poller_ticks_saved);
            ("fti_increments", Json.Int s.Sched.fti_increments);
            ("fti_increments_skipped", Json.Int s.Sched.fti_increments_skipped);
            ("transitions", Json.Int (List.length s.Sched.transitions));
            ("ticks_per_increment", Json.Float ticks_per_increment);
            ("skipped_share", Json.Float skipped_share);
            ("fib_fingerprint", Json.String fib);
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "sched-smoke: %d poller ticks over %d FTI increments (%.3f per \
     increment), %d fast-forwarded (%.1f%%)\n"
    s.Sched.poller_ticks s.Sched.fti_increments ticks_per_increment
    s.Sched.fti_increments_skipped (100.0 *. skipped_share);
  if ticks_per_increment > max_ticks_per_increment then
    fail "poller-tick budget missed: %.3f > %.1f ticks per increment — wake \
          hints regressed?"
      ticks_per_increment max_ticks_per_increment;
  if skipped_share < min_skipped_share then
    fail "fast-forward budget missed: %.1f%% < %.0f%% of increments skipped"
      (100.0 *. skipped_share) (100.0 *. min_skipped_share);
  if timeline first <> timeline second then
    fail "mode timeline diverged between two identical runs";
  if fib <> clean_k4_fib then
    fail "final FIB %S differs from the clean k=4 fabric %S" fib clean_k4_fib
