(* Tests for the causal-tracing layer: the Causal graph itself, the
   packed payload of every node kind (printed on read exactly as it
   used to be formatted), the scheduler's ambient-cause plumbing,
   determinism (same seed + plan => byte-identical causal-graph hash,
   and literal pinned hashes), zero-cost-off equivalence, FIB
   provenance chains, and the convergence explainer. *)

open Horse_engine
open Horse_topo
open Horse_core

let check = Alcotest.check

(* --- the graph ---------------------------------------------------------- *)

(* Test kinds: a bare name, and a name with the payload printed. *)
let bare name = Causal.kind name (fun _ -> "")
let k_a = bare "a" and k_d = bare "d" and k_k = bare "k"
let k_b = Causal.kind "b" (Printf.sprintf "x%d")
let k_c = Causal.kind "c" (Printf.sprintf "y%d")
let k_text = Causal.text_kind "k"

let test_graph_basics () =
  let g = Causal.create () in
  check Alcotest.int "empty" 0 (Causal.length g);
  let a = Causal.node g ~at:Time.zero ~kind:k_a ~arg:0 ~parent:Causal.none in
  let b = Causal.node g ~at:(Time.of_us 5) ~kind:k_b ~arg:1 ~parent:a in
  let c = Causal.node g ~at:(Time.of_us 9) ~kind:k_c ~arg:2 ~parent:b in
  check Alcotest.int "three nodes" 3 (Causal.length g);
  check Alcotest.bool "none is none" true (Causal.is_none Causal.none);
  check Alcotest.bool "node is not none" false (Causal.is_none c);
  let chain = Causal.chain g c in
  check Alcotest.int "chain root-first" 3 (List.length chain);
  check (Alcotest.list Alcotest.string) "kinds in order" [ "a"; "b"; "c" ]
    (List.map (fun (i : Causal.info) -> i.Causal.kind) chain);
  check (Alcotest.list Alcotest.string) "details printed on read"
    [ ""; "x1"; "y2" ]
    (List.map (fun (i : Causal.info) -> i.Causal.detail) chain);
  (* Foreign / garbage parents degrade to roots, never raise. *)
  let d = Causal.node g ~at:Time.zero ~kind:k_d ~arg:0 ~parent:12345 in
  check Alcotest.int "wild parent becomes root" 1
    (List.length (Causal.chain g d))

let test_graph_cap_drops () =
  let g = Causal.create ~max_nodes:4 () in
  let last = ref Causal.none in
  for i = 0 to 9 do
    last :=
      Causal.node g ~at:(Time.of_us i) ~kind:k_k ~arg:0 ~parent:!last
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
           Causal.node g ~at:Time.zero ~kind:k_text ~arg:(Causal.text g d)
             ~parent)
         Causal.none details);
    Causal.hash g
  in
  check Alcotest.string "same content, same hash" (build [ "a"; "b" ])
    (build [ "a"; "b" ]);
  check Alcotest.bool "different content, different hash" true
    (build [ "a"; "b" ] <> build [ "a"; "c" ])

(* --- packed payloads ----------------------------------------------------- *)

(* Every packed kind, printed from its payload, must read exactly as
   the string formatted eagerly at the call site used to. The pinned
   hashes only ever see 10.x addresses, small ASNs and small counts;
   these draws reach the edges: addresses from 128.0.0.0 up (negative
   as [Int32]), /0 and /32, 4-byte ASNs from 2^31 up, and the largest
   counts a packer accepts. *)

module Gen = QCheck2.Gen

let qtest = Horse_test_support.qtest

(* Uniform in [lo, hi], with the bounds themselves drawn often. *)
let edgy lo hi = Gen.(oneof [ int_range lo hi; oneofl [ lo; hi ] ])

let asn_gen = edgy 0 0xFFFF_FFFF
let count_gen = edgy 0 0x7FFF
let u32_gen = edgy 0 0xFFFF_FFFF

let prefix_gen =
  Gen.map2
    (fun a len ->
      Horse_net.Prefix.make (Horse_net.Ipv4.of_int32 (Int32.of_int a)) len)
    u32_gen (edgy 0 32)

let read_detail g kind arg =
  let id = Causal.node g ~at:Time.zero ~kind ~arg ~parent:Causal.none in
  (Option.get (Causal.info g id)).Causal.detail

let detail kind arg = read_detail (Causal.create ()) kind arg

let raises f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let fat_tree_topo = (Fat_tree.build ~k:4 ()).Fat_tree.topo
let node_gen = Gen.int_range 0 (Topology.n_nodes fat_tree_topo - 1)
let node_name id = (Topology.node fat_tree_topo id).Topology.name

let round_trips =
  let open Horse_emulation in
  let open Horse_bgp in
  let open Horse_openflow in
  let open Horse_ospf in
  let module Prefix = Horse_net.Prefix in
  [
    qtest "chan:send" (edgy 0 max_int) (fun n ->
        detail Channel.send_kind n = string_of_int n ^ "B"
        && detail Channel.batch_kind n = "batch n=" ^ string_of_int n);
    qtest "bgp:update" (Gen.triple asn_gen count_gen count_gen)
      (fun (asn, wd, nlri) ->
        detail Speaker.update_kind (Speaker.pack_update ~asn ~wd ~nlri)
        = Printf.sprintf "from AS%d wd=%d nlri=%d" asn wd nlri);
    qtest ~count:1 "bgp:update rejects overflow" Gen.unit (fun () ->
        List.for_all raises
          [
            (fun () -> Speaker.pack_update ~asn:0x1_0000_0000 ~wd:0 ~nlri:0);
            (fun () -> Speaker.pack_update ~asn:(-1) ~wd:0 ~nlri:0);
            (fun () -> Speaker.pack_update ~asn:1 ~wd:0x8000 ~nlri:0);
            (fun () -> Speaker.pack_update ~asn:1 ~wd:0 ~nlri:0x8000);
          ]);
    qtest "bgp:decide" prefix_gen (fun p ->
        detail Speaker.decide_kind (Prefix.to_bits p) = Prefix.to_string p);
    qtest ~count:1 "prefix bits reject non-prefixes" Gen.unit (fun () ->
        List.for_all
          (fun b -> raises (fun () -> Prefix.of_bits b))
          [ -1; 1 lsl 38; 33; (1 lsl 6) lor 24 (* host bit set *) ]);
    qtest "bgp:session" asn_gen (fun asn ->
        detail Speaker.established_kind asn
        = Printf.sprintf "established AS%d" asn);
    qtest "fib:write (bgp)" (Gen.pair node_gen prefix_gen) (fun (node, p) ->
        let g = Causal.create () in
        let kind =
          Causal.local_kind g "fib:write"
            (Horse_core.Routed_fabric.fib_write_detail fat_tree_topo)
        in
        read_detail g kind (Horse_core.Routed_fabric.pack_fib_write ~node p)
        = Printf.sprintf "%s %s" (node_name node) (Prefix.to_string p));
    qtest "fib:write (ospf)" (Gen.pair node_gen u32_gen) (fun (node, n) ->
        let g = Causal.create () in
        let kind =
          Causal.local_kind g "fib:write"
            (Horse_core.Ospf_fabric.fib_write_detail fat_tree_topo)
        in
        read_detail g kind (Causal.pair node n)
        = Printf.sprintf "%s (%d routes)" (node_name node) n);
    qtest "of:flow_mod" (edgy 0 max_int) (fun dpid ->
        detail Switch.flow_mod_kind dpid = Printf.sprintf "dpid=%d" dpid);
    qtest "packet_in" (Gen.pair (edgy 0 0x3FFF_FFFF) u32_gen)
      (fun (dpid, port) ->
        let want = Printf.sprintf "dpid=%d port=%d" dpid port in
        let arg = Causal.pair dpid port in
        detail Switch.packet_in_kind arg = want
        && detail Horse_controller.Controller.packet_in_kind arg = want);
    qtest ~count:1 "pair rejects overflow" Gen.unit (fun () ->
        List.for_all raises
          [
            (fun () -> Causal.pair (1 lsl 30) 0);
            (fun () -> Causal.pair 0 (1 lsl 32));
            (fun () -> Causal.pair (-1) 0);
            (fun () -> Causal.pair 0 (-1));
          ]);
    qtest "ospf:spf" u32_gen (fun n ->
        detail Daemon.spf_kind n = Printf.sprintf "%d routes" n);
    qtest "ospf:adj"
      (Gen.pair (edgy 0 0x3FFF_FFFF) (Gen.oneofl Daemon.[ Down; Init; Full ]))
      (fun (iface, state) ->
        detail Daemon.adj_kind (Daemon.pack_adj ~iface state)
        = Format.asprintf "iface %d -> %a" iface Daemon.pp_neighbor_state state);
    qtest "ospf:lsa" (Gen.pair (edgy 0 0x3FFF_FFFF) u32_gen) (fun (n, iface) ->
        detail Daemon.lsa_kind (Causal.pair n iface)
        = Printf.sprintf "%d LSAs via iface %d" n iface);
  ]

let test_text_and_local_kinds () =
  let g = Causal.create () and other = Causal.create () in
  let fault = Causal.text_kind "fault:test" in
  let label = "link_down e1<->a1" in
  check Alcotest.string "text detail verbatim" label
    (read_detail g fault (Causal.text g label));
  let local = Causal.local_kind g "local" string_of_int in
  check Alcotest.string "local printer" "7" (read_detail g local 7);
  let id = Causal.node other ~at:Time.zero ~kind:local ~arg:7 ~parent:Causal.none in
  check Alcotest.bool "a kind not registered on this graph fails on read" true
    (raises (fun () -> Causal.info other id))

(* --- scheduler plumbing ------------------------------------------------- *)

let k_root = bare "root" and k_child = bare "child" and k_noise = bare "noise"

let test_ambient_cause_propagation () =
  let sched = Sched.create () in
  let seen = ref [] in
  ignore
    (Sched.schedule_at sched (Time.of_ms 1) (fun () ->
         let root = Sched.cause_point sched k_root 0 in
         (* The action scheduled here must fire under [root] even
            though other events run in between. *)
         ignore
           (Sched.schedule_at sched (Time.of_ms 3) (fun () ->
                let child =
                  Sched.cause_point sched k_child 0
                in
                seen := (root, child) :: !seen))));
  ignore
    (Sched.schedule_at sched (Time.of_ms 2) (fun () ->
         ignore (Sched.cause_point sched k_noise 0)));
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
  let id = Sched.cause_point sched k_k 0 in
  check Alcotest.bool "points are none" true (Causal.is_none id);
  check Alcotest.int "texts are not stored" 0 (Sched.text sched "x");
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
  Scenario.run
    (Spec.make ~seed:11
       ~config:{ Sched.default_config with Sched.causal }
       ~faults:plan ~duration:(Time.of_sec 8.0) (Spec.Fat_tree 4) Spec.Bgp_ecmp)

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

(* --- pinned hashes ------------------------------------------------------- *)

(* Literal digests of whole causal graphs: a change to what is
   recorded (times, kinds, detail strings, parent edges) or to how it
   is formatted moves them. Between them the four runs record every
   node kind the engine emits except the OSPF fabric's faults. *)

let check_pin label ~hash ~nodes g =
  check Alcotest.int (label ^ ": nodes") nodes (Causal.length g);
  check Alcotest.string (label ^ ": hash") hash (Causal.hash g)

(* The storm's session teardowns refresh the dropped prefixes in
   prefix order ([Rib.drop_peer_ids]). *)
let test_pin_storm () =
  check_pin "bgp storm k=4" ~hash:"27ec43ba0ed92f2a4a206448e0b37968"
    ~nodes:5016
    (Option.get (run_storm ()).Scenario.causal)

let test_pin_ospf_ring () =
  let wan = Wan.ring 4 in
  let exp = Experiment.create wan.Wan.topo in
  let fabric =
    Ospf_fabric.build ~cm:(Experiment.cm exp)
      ~originate:(fun node -> [ (Wan.router_prefix wan node, 0) ])
      wan.Wan.topo
  in
  Experiment.at exp Time.zero (fun () -> Routed_core.start fabric);
  ignore (Experiment.run ~until:(Time.of_sec 30.0) exp);
  check_pin "ospf ring 4" ~hash:"5c7cc763c4d4348c837fb3f0e4f6f91d" ~nodes:268
    (Option.get (Sched.causal (Experiment.scheduler exp)))

let test_pin_te te ~hash ~nodes () =
  let r = Scenario.run_fat_tree_te ~pods:4 ~te ~duration:(Time.of_sec 30.0) () in
  check_pin (Scenario.te_name te) ~hash ~nodes
    (Option.get r.Scenario.causal)

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
          Alcotest.test_case "text and local kinds" `Quick
            test_text_and_local_kinds;
        ] );
      ("packed round-trip", round_trips);
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
      ( "pinned",
        [
          Alcotest.test_case "bgp storm k=4" `Quick test_pin_storm;
          Alcotest.test_case "ospf ring 4" `Quick test_pin_ospf_ring;
          Alcotest.test_case "sdn ecmp k=4" `Quick
            (test_pin_te Scenario.Sdn_ecmp
               ~hash:"57a89db1b464c9a6bd20d90e6e268e09" ~nodes:256);
          Alcotest.test_case "hedera gff k=4" `Quick
            (test_pin_te Scenario.Hedera_gff
               ~hash:"8cd2ea7fb3a0b814859b695c5dbcd3b0" ~nodes:422);
        ] );
      ( "explain",
        [
          Alcotest.test_case "provenance chains + explainer" `Quick
            test_provenance_and_explainer;
        ] );
    ]
