(* Causal-tracing smoke: the 22-fault storm TE scenario run with
   tracing on vs off.

   Gates, failing @trace-smoke (and @runtest with it):
   - tracing does no extra scheduler work: identical events executed,
     poller ticks and fast-forwarded FTI increments either way;
   - tracing allocates at most [words_per_node_budget] extra minor-heap
     words per causal node recorded (a detail thunk forced eagerly, or
     a per-node closure or string on the hot path, blows it);
   - tracing is invisible to the experiment: identical final FIB
     fingerprint either way;
   - every BGP-learned FIB entry after the storm carries a provenance
     chain (non-none cause, nonempty chain ending at its fib:write);
   - determinism: two traced runs produce byte-identical causal-graph
     hashes.

   The gates count work, not wall time, so they pass or fail the same
   way on a loaded machine; the wall overhead of tracing is
   [trace.overhead_pct] in bench/e2e. Writes both sides' numbers to the
   path given as argv(1). *)

module Time = Horse_engine.Time
module Sched = Horse_engine.Sched
module Causal = Horse_engine.Causal
module Scenario = Horse_core.Scenario
module Json = Horse_telemetry.Json

(* Measured at 1.0 extra minor words per node; with every detail
   thunk forced inside [Sched.cause_point] it is 88.7. The count does
   not depend on the machine's speed or load. *)
let words_per_node_budget = 8.0

(* The shared smoke storm: 22 fault events over a 20s virtual run. *)
let plan = Horse_test_support.smoke_storm_plan ()

(* One run and the minor-heap words it allocated. *)
let run ~causal =
  let before = Gc.minor_words () in
  let r =
    Scenario.run_fat_tree_te ~pods:4 ~te:Scenario.Bgp_ecmp
      ~config:{ Sched.default_config with Sched.causal }
      ~faults:plan ~duration:(Time.of_sec 20.0) ()
  in
  (r, Gc.minor_words () -. before)

let () =
  let out = Sys.argv.(1) in
  (* The first run pays for one-time setup (shared tables, lazily
     built modules); it is not counted. *)
  ignore (run ~causal:false);
  let off, off_words = run ~causal:false in
  let traced, on_words = run ~causal:true in
  let g = Option.get traced.Scenario.causal in
  let prov = traced.Scenario.fib_provenance in
  let words_per_node =
    (on_words -. off_words) /. float_of_int (max 1 (Causal.length g))
  in
  let work (r : Scenario.result) =
    let st = r.Scenario.sched_stats in
    ( st.Sched.events_executed,
      st.Sched.poller_ticks,
      st.Sched.fti_increments_skipped )
  in
  let oc = open_out out in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ( "off_events",
              Json.Int off.Scenario.sched_stats.Sched.events_executed );
            ( "on_events",
              Json.Int traced.Scenario.sched_stats.Sched.events_executed );
            ( "off_ticks",
              Json.Int off.Scenario.sched_stats.Sched.poller_ticks );
            ( "on_ticks",
              Json.Int traced.Scenario.sched_stats.Sched.poller_ticks );
            ( "off_ffwd",
              Json.Int off.Scenario.sched_stats.Sched.fti_increments_skipped );
            ( "on_ffwd",
              Json.Int traced.Scenario.sched_stats.Sched.fti_increments_skipped );
            ("off_minor_words", Json.Float off_words);
            ("on_minor_words", Json.Float on_words);
            ("words_per_node", Json.Float words_per_node);
            ("causal_nodes", Json.Int (Causal.length g));
            ("causal_dropped", Json.Int (Causal.dropped g));
            ("causal_hash", Json.String (Causal.hash g));
            ("fib_entries", Json.Int (List.length prov));
          ]));
  output_char oc '\n';
  close_out oc;
  let events, ticks, skipped = work traced in
  Printf.printf
    "trace-smoke: %d causal nodes, %.1f extra minor words per node (budget \
     %.0f), %d events, %d poller ticks, %d increments skipped, %d FIB \
     entries with provenance\n"
    (Causal.length g) words_per_node words_per_node_budget events ticks
    skipped (List.length prov);
  if work off <> work traced then begin
    let e, t, k = work off in
    Printf.eprintf
      "trace-smoke: tracing changed the scheduler's work: events %d -> %d, \
       poller ticks %d -> %d, increments skipped %d -> %d\n"
      e events t ticks k skipped;
    exit 1
  end;
  if words_per_node > words_per_node_budget then begin
    Printf.eprintf
      "trace-smoke: tracing allocates %.1f minor words per causal node \
       (budget %.0f) — a causal primitive grew a cost on the hot path?\n"
      words_per_node words_per_node_budget;
    exit 1
  end;
  if
    traced.Scenario.fib_fingerprint <> off.Scenario.fib_fingerprint
    || off.Scenario.fib_fingerprint = None
  then begin
    Printf.eprintf "trace-smoke: tracing perturbed the final FIBs\n";
    exit 1
  end;
  if prov = [] then begin
    Printf.eprintf "trace-smoke: no FIB provenance entries after the storm\n";
    exit 1
  end;
  List.iter
    (fun (node, prefix, cause) ->
      let where = node ^ " " ^ Horse_net.Prefix.to_string prefix in
      if Causal.is_none cause then begin
        Printf.eprintf "trace-smoke: FIB entry %s has no provenance\n" where;
        exit 1
      end;
      match List.rev (Causal.chain g cause) with
      | [] ->
          Printf.eprintf "trace-smoke: FIB entry %s has an empty chain\n" where;
          exit 1
      | last :: _ when last.Causal.kind <> "fib:write" ->
          Printf.eprintf
            "trace-smoke: FIB entry %s chain ends at %s, not fib:write\n" where
            last.Causal.kind;
          exit 1
      | _ :: _ -> ())
    prov;
  let again, _ = run ~causal:true in
  let h1 = Causal.hash g
  and h2 = Causal.hash (Option.get again.Scenario.causal) in
  if h1 <> h2 then begin
    Printf.eprintf
      "trace-smoke: causal-graph hash diverged across same-seed runs\n";
    exit 1
  end
