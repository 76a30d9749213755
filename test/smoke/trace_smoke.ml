(* Causal-tracing smoke: the 22-fault storm TE scenario run with
   tracing on vs off.

   Gates, failing @trace-smoke (and @runtest with it):
   - tracing does no extra scheduler work: identical events executed
     and skipped FTI increments either way;
   - tracing allocates at most [words_per_node_budget] extra minor-heap
     words per causal node recorded (a detail string formatted eagerly,
     or a per-node closure on the hot path, blows it);
   - tracing retains at most [retained_per_node_budget] extra live
     words per causal node once the run is over (a per-node closure or
     string kept in the graph, or a kind table pinning run state,
     blows it);
   - tracing is invisible to the experiment: identical final FIB
     fingerprint either way;
   - every BGP-learned FIB entry after the storm carries a provenance
     chain (non-none cause, nonempty chain ending at its fib:write);
   - determinism: two traced runs produce byte-identical causal-graph
     hashes, equal to the pinned literal.

   The gates count work, not wall time, so they pass or fail the same
   way on a loaded machine; the wall overhead of tracing is
   [trace.overhead_pct] in bench/e2e. Writes both sides' numbers to the
   path given as argv(1). *)

module Time = Horse_engine.Time
module Sched = Horse_engine.Sched
module Causal = Horse_engine.Causal
module Scenario = Horse_core.Scenario
module Spec = Horse_core.Spec
module Json = Horse_telemetry.Json

(* Measured at 1.0 extra minor words per node; with every detail
   string formatted inside [Sched.cause_point] it is 88.7. The count
   does not depend on the machine's speed or load. *)
let words_per_node_budget = 8.0

(* Measured at 3.1 retained words per node: a node is three unboxed
   words. A graph that stores one detail closure per node retains 8.4.
   Live words are counted after a full major collection, so the count
   does not depend on the machine either. *)
let retained_per_node_budget = 4.0

(* The smoke storm's causal graph, pinned: what is recorded and how
   it is formatted must not drift. A BGP session teardown refreshes
   the dropped prefixes in prefix order ([Rib.drop_peer_ids]), so the
   order of the decisions in that instant is part of the pin. *)
let pinned_hash = "83e30967de9a50a8a0ddef2ce54a7163"
let pinned_nodes = 7527

(* The shared smoke storm: 22 fault events over a 20s virtual run. *)
let plan = Horse_test_support.smoke_storm_plan ()

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* One run, the minor-heap words it allocated, and the live words its
   result keeps once everything else of the run is garbage. *)
let run ~causal =
  let live_before = live_words () in
  let before = Gc.minor_words () in
  let r =
    Scenario.run
      (Spec.make
         ~config:{ Sched.default_config with Sched.causal }
         ~faults:plan ~duration:(Time.of_sec 20.0) (Spec.Fat_tree 4) Spec.Bgp_ecmp)
  in
  let minor = Gc.minor_words () -. before in
  (r, minor, live_words () - live_before)

let () =
  let out = Sys.argv.(1) in
  (* The first run pays for one-time setup (shared tables, lazily
     built modules); it is not counted. *)
  ignore (run ~causal:false);
  let off, off_words, off_live = run ~causal:false in
  let traced, on_words, on_live = run ~causal:true in
  let g = Option.get traced.Scenario.causal in
  let prov = traced.Scenario.fib_provenance in
  let per_node x = x /. float_of_int (max 1 (Causal.length g)) in
  let words_per_node = per_node (on_words -. off_words) in
  let retained_per_node = per_node (float_of_int (on_live - off_live)) in
  let work (r : Scenario.result) =
    let st = r.Scenario.sched_stats in
    (st.Sched.events_executed, st.Sched.fti_increments_skipped)
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
            ( "off_ffwd",
              Json.Int off.Scenario.sched_stats.Sched.fti_increments_skipped );
            ( "on_ffwd",
              Json.Int traced.Scenario.sched_stats.Sched.fti_increments_skipped );
            ("off_minor_words", Json.Float off_words);
            ("on_minor_words", Json.Float on_words);
            ("words_per_node", Json.Float words_per_node);
            ("off_retained_words", Json.Int off_live);
            ("on_retained_words", Json.Int on_live);
            ("retained_per_node", Json.Float retained_per_node);
            ("causal_nodes", Json.Int (Causal.length g));
            ("causal_dropped", Json.Int (Causal.dropped g));
            ("causal_hash", Json.String (Causal.hash g));
            ("fib_entries", Json.Int (List.length prov));
          ]));
  output_char oc '\n';
  close_out oc;
  let events, skipped = work traced in
  Printf.printf
    "trace-smoke: %d causal nodes, %.1f extra minor words per node (budget \
     %.0f), %.2f extra retained words per node (budget %.0f), %d events, %d \
     increments skipped, %d FIB entries with provenance\n"
    (Causal.length g) words_per_node words_per_node_budget retained_per_node
    retained_per_node_budget events skipped (List.length prov);
  if work off <> work traced then begin
    let e, k = work off in
    Printf.eprintf
      "trace-smoke: tracing changed the scheduler's work: events %d -> %d, \
       increments skipped %d -> %d\n"
      e events k skipped;
    exit 1
  end;
  if words_per_node > words_per_node_budget then begin
    Printf.eprintf
      "trace-smoke: tracing allocates %.1f minor words per causal node \
       (budget %.0f) — a causal primitive grew a cost on the hot path?\n"
      words_per_node words_per_node_budget;
    exit 1
  end;
  if retained_per_node > retained_per_node_budget then begin
    Printf.eprintf
      "trace-smoke: the finished run retains %.2f extra words per causal \
       node (budget %.0f) — a node grew a boxed field, or a kind table \
       pins run state?\n"
      retained_per_node retained_per_node_budget;
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
  let again, _, _ = run ~causal:true in
  let h1 = Causal.hash g
  and h2 = Causal.hash (Option.get again.Scenario.causal) in
  if h1 <> h2 then begin
    Printf.eprintf
      "trace-smoke: causal-graph hash diverged across same-seed runs\n";
    exit 1
  end;
  if h1 <> pinned_hash || Causal.length g <> pinned_nodes then begin
    Printf.eprintf
      "trace-smoke: causal graph is %s (%d nodes), pinned %s (%d nodes)\n" h1
      (Causal.length g) pinned_hash pinned_nodes;
    exit 1
  end
