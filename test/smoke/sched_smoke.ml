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
module Topology = Horse_topo.Topology
module Fat_tree = Horse_topo.Fat_tree
module Scenario = Horse_core.Scenario
module Plan = Horse_faults.Plan
module Json = Horse_telemetry.Json

let max_ticks_per_increment = 0.2
let min_skipped_share = 0.9

(* [fib_fingerprint] of the converged, fault-free k=4 BGP fabric. *)
let clean_k4_fib = "0a9e8e63eee7c80d79f89d0181f3255b"

(* The fault_smoke plan: a deterministic flap storm plus a node
   crash/restart, so the run alternates control-plane bursts with the
   quiet FTI windows fast-forward exists for. *)
let plan =
  let ft = Fat_tree.build ~k:4 () in
  let is_switch (n : Topology.node) =
    match n.Topology.kind with
    | Topology.Switch | Topology.Router -> true
    | Topology.Host -> false
  in
  let sites =
    List.filteri
      (fun i _ -> i mod 9 = 0)
      (List.filter_map
         (fun (l : Topology.link) ->
           if l.Topology.link_id < l.Topology.peer then
             let src = Topology.node ft.Fat_tree.topo l.Topology.src in
             let dst = Topology.node ft.Fat_tree.topo l.Topology.dst in
             if is_switch src && is_switch dst then
               Some (src.Topology.name, dst.Topology.name)
             else None
           else None)
         (Topology.links ft.Fat_tree.topo))
  in
  let victim = ft.Fat_tree.aggs.(2).(0).Topology.name in
  let storm =
    Plan.flap_storm ~seed:5 ~sites ~start:(Time.of_sec 5.0)
      ~stop:(Time.of_sec 15.0) ~period:(Time.of_sec 4.0)
      ~down_for:(Time.of_sec 1.0) ()
  in
  {
    storm with
    Plan.events =
      [
        { Plan.at = Time.of_sec 6.0; action = Plan.Node_crash victim };
        { Plan.at = Time.of_sec 12.0; action = Plan.Node_restart victim };
      ];
  }

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
