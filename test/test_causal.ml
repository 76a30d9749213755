(* Tests for the causal-tracing layer: the Causal graph itself, the
   scheduler's ambient-cause plumbing, determinism (same seed + plan
   => byte-identical causal-graph hash), zero-cost-off equivalence,
   FIB provenance chains, and the convergence explainer. *)

open Horse_engine
open Horse_topo
open Horse_core

let check = Alcotest.check

(* --- the graph ---------------------------------------------------------- *)

let test_graph_basics () =
  let g = Causal.create () in
  check Alcotest.int "empty" 0 (Causal.length g);
  let a = Causal.node g ~at:Time.zero ~kind:"a" ~detail:(fun () -> "") ~parent:Causal.none in
  let b = Causal.node g ~at:(Time.of_us 5) ~kind:"b" ~detail:(fun () -> "x") ~parent:a in
  let c = Causal.node g ~at:(Time.of_us 9) ~kind:"c" ~detail:(fun () -> "y") ~parent:b in
  check Alcotest.int "three nodes" 3 (Causal.length g);
  check Alcotest.bool "none is none" true (Causal.is_none Causal.none);
  check Alcotest.bool "node is not none" false (Causal.is_none c);
  let chain = Causal.chain g c in
  check Alcotest.int "chain root-first" 3 (List.length chain);
  check (Alcotest.list Alcotest.string) "kinds in order" [ "a"; "b"; "c" ]
    (List.map (fun (i : Causal.info) -> i.Causal.kind) chain);
  (* Foreign / garbage parents degrade to roots, never raise. *)
  let d = Causal.node g ~at:Time.zero ~kind:"d" ~detail:(fun () -> "") ~parent:12345 in
  check Alcotest.int "wild parent becomes root" 1
    (List.length (Causal.chain g d))

let test_graph_cap_drops () =
  let g = Causal.create ~max_nodes:4 () in
  let last = ref Causal.none in
  for i = 0 to 9 do
    last :=
      Causal.node g ~at:(Time.of_us i) ~kind:"k" ~detail:(fun () -> "") ~parent:!last
  done;
  check Alcotest.int "capped" 4 (Causal.length g);
  check Alcotest.int "drops counted" 6 (Causal.dropped g);
  check Alcotest.bool "overflow returns none" true (Causal.is_none !last)

let test_hash_sensitivity () =
  let build details =
    let g = Causal.create () in
    ignore
      (List.fold_left
         (fun parent d ->
           Causal.node g ~at:Time.zero ~kind:"k" ~detail:(fun () -> d) ~parent)
         Causal.none details);
    Causal.hash g
  in
  check Alcotest.string "same content, same hash" (build [ "a"; "b" ])
    (build [ "a"; "b" ]);
  check Alcotest.bool "different content, different hash" true
    (build [ "a"; "b" ] <> build [ "a"; "c" ])

(* --- scheduler plumbing ------------------------------------------------- *)

let test_ambient_cause_propagation () =
  let sched = Sched.create () in
  let seen = ref [] in
  ignore
    (Sched.schedule_at sched (Time.of_ms 1) (fun () ->
         let root = Sched.cause_point sched ~kind:"root" (fun () -> "") in
         (* The action scheduled here must fire under [root] even
            though other events run in between. *)
         ignore
           (Sched.schedule_at sched (Time.of_ms 3) (fun () ->
                let child =
                  Sched.cause_point sched ~kind:"child" (fun () -> "")
                in
                seen := (root, child) :: !seen))));
  ignore
    (Sched.schedule_at sched (Time.of_ms 2) (fun () ->
         ignore (Sched.cause_point sched ~kind:"noise" (fun () -> ""))));
  ignore (Sched.run ~until:(Time.of_ms 10) sched);
  let g = Option.get (Sched.causal sched) in
  match !seen with
  | [ (root, child) ] ->
      let chain = Causal.chain g child in
      check
        (Alcotest.list Alcotest.string)
        "child chains to its scheduling cause, not the interleaved one"
        [ "root"; "child" ]
        (List.map (fun (i : Causal.info) -> i.Causal.kind) chain);
      check Alcotest.int "parent edge" root
        (List.nth chain 1).Causal.parent
  | _ -> Alcotest.fail "child event did not run"

let test_causal_off_is_noop () =
  let sched =
    Sched.create ~config:{ Sched.default_config with Sched.causal = false } ()
  in
  check Alcotest.bool "no graph" true (Sched.causal sched = None);
  let id = Sched.cause_point sched ~kind:"k" (fun () -> assert false) in
  check Alcotest.bool "points are none" true (Causal.is_none id);
  Sched.with_cause sched id (fun () -> ());
  Sched.protect_cause sched (fun () -> ())

(* --- end-to-end determinism -------------------------------------------- *)

let storm_plan =
  let module Plan = Horse_faults.Plan in
  let ft = Fat_tree.build ~k:4 () in
  let sites =
    List.filteri
      (fun i _ -> i mod 9 = 0)
      (Topology.switch_links ft.Fat_tree.topo)
  in
  Plan.flap_storm ~seed:5 ~sites ~start:(Time.of_sec 2.0)
    ~stop:(Time.of_sec 6.0) ~period:(Time.of_sec 3.0)
    ~down_for:(Time.of_sec 1.0) ()

let run_storm ?(causal = true) ?(plan = storm_plan) () =
  Scenario.run_fat_tree_te ~seed:11
    ~config:{ Sched.default_config with Sched.causal }
    ~faults:plan ~pods:4 ~te:Scenario.Bgp_ecmp ~duration:(Time.of_sec 8.0) ()

let graph_hash (r : Scenario.result) =
  Causal.hash (Option.get r.Scenario.causal)

let test_same_seed_same_hash () =
  let a = run_storm () and b = run_storm () in
  check Alcotest.string "identical causal-graph hash" (graph_hash a)
    (graph_hash b);
  check Alcotest.bool "identical fib fingerprint" true
    (a.Scenario.fib_fingerprint = b.Scenario.fib_fingerprint
    && a.Scenario.fib_fingerprint <> None)

let test_plan_change_changes_hash () =
  let module Plan = Horse_faults.Plan in
  let a = run_storm () in
  let other =
    {
      storm_plan with
      Plan.events =
        [
          {
            Plan.at = Time.of_sec 3.0;
            action = Plan.Node_crash "agg-p2-0";
          };
        ];
    }
  in
  let b = run_storm ~plan:other () in
  check Alcotest.bool "different plan, different hash" true
    (graph_hash a <> graph_hash b)

let test_causal_off_same_results () =
  let on_ = run_storm ~causal:true () and off = run_storm ~causal:false () in
  check Alcotest.bool "tracing must not perturb the experiment" true
    (on_.Scenario.fib_fingerprint = off.Scenario.fib_fingerprint
    && off.Scenario.fib_fingerprint <> None);
  check Alcotest.bool "off has no graph" true (off.Scenario.causal = None);
  check Alcotest.bool "off has provenance entries, all none" true
    (off.Scenario.fib_provenance <> []
    && List.for_all
         (fun (_, _, c) -> Causal.is_none c)
         off.Scenario.fib_provenance)

(* --- provenance + explainer --------------------------------------------- *)

let test_provenance_and_explainer () =
  let r = run_storm () in
  let g = Option.get r.Scenario.causal in
  check Alcotest.bool "provenance is nonempty" true
    (r.Scenario.fib_provenance <> []);
  List.iter
    (fun (node, prefix, cause) ->
      let label =
        Printf.sprintf "%s %s" node (Horse_net.Prefix.to_string prefix)
      in
      check Alcotest.bool (label ^ ": has cause") false (Causal.is_none cause);
      let chain = Causal.chain g cause in
      check Alcotest.bool (label ^ ": nonempty chain") true (chain <> []);
      let last = List.nth chain (List.length chain - 1) in
      check Alcotest.string
        (label ^ ": chain ends at the FIB write")
        "fib:write" last.Causal.kind)
    r.Scenario.fib_provenance;
  let inj = Option.get r.Scenario.injector in
  let attrs =
    Horse_causal.Explain.attribute ~graph:g
      ~provenance:
        (List.map
           (fun (n, p, c) -> (n, Horse_net.Prefix.to_string p, c))
           r.Scenario.fib_provenance)
      ~reconvergence:(Horse_faults.Injector.reconvergence inj)
  in
  check Alcotest.bool "one attribution per reconvergence sample" true
    (List.length attrs
    = List.length (Horse_faults.Injector.reconvergence inj)
    && attrs <> []);
  (* At least one fault must explain with a full critical path that
     starts at the fault and ends at a FIB write. *)
  let explained =
    List.filter
      (fun (a : Horse_causal.Explain.attribution) ->
        match (a.Horse_causal.Explain.critical, List.rev a.critical) with
        | first :: _, last :: _ ->
            String.length first.Causal.kind >= 6
            && String.sub first.Causal.kind 0 6 = "fault:"
            && String.equal last.Causal.kind "fib:write"
            && a.Horse_causal.Explain.hops >= 3
        | _, _ -> false)
      attrs
  in
  check Alcotest.bool "at least one full fault->...->fib chain" true
    (explained <> []);
  List.iter
    (fun (a : Horse_causal.Explain.attribution) ->
      check Alcotest.bool "latency breakdown present" true
        (a.Horse_causal.Explain.per_proto_latency <> []);
      check Alcotest.bool "messages counted" true
        (a.Horse_causal.Explain.messages > 0))
    explained

let () =
  Alcotest.run "horse_causal"
    [
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "cap drops" `Quick test_graph_cap_drops;
          Alcotest.test_case "hash sensitivity" `Quick test_hash_sensitivity;
        ] );
      ( "sched",
        [
          Alcotest.test_case "ambient cause propagation" `Quick
            test_ambient_cause_propagation;
          Alcotest.test_case "off is a no-op" `Quick test_causal_off_is_noop;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same hash" `Quick
            test_same_seed_same_hash;
          Alcotest.test_case "plan change changes hash" `Quick
            test_plan_change_changes_hash;
          Alcotest.test_case "off: identical results" `Quick
            test_causal_off_same_results;
        ] );
      ( "explain",
        [
          Alcotest.test_case "provenance chains + explainer" `Quick
            test_provenance_and_explainer;
        ] );
    ]
