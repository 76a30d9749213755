(* Property tests draw from one fixed seed, so [dune runtest] passes or
   fails the same way on every run. Set QCHECK_SEED to explore another
   seed; a failure report then replays with the same value. *)
let default_seed = 42

let seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some s -> s
  | None -> default_seed

(* Each test gets its own generator state, so a test's draws do not
   depend on which tests ran before it. *)
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| seed |])
    (QCheck2.Test.make ~count ~name gen prop)

module Fair_share_reference = Fair_share_reference
module Fti_reference = Fti_reference

let bgp_decode_reference = Bgp_decode_reference.decode

let smoke_storm_plan () =
  let module Time = Horse_engine.Time in
  let module Fat_tree = Horse_topo.Fat_tree in
  let module Plan = Horse_faults.Plan in
  let ft = Fat_tree.build ~k:4 () in
  let sites =
    List.filteri
      (fun i _ -> i mod 9 = 0)
      (Horse_topo.Topology.switch_links ft.Fat_tree.topo)
  in
  let victim = ft.Fat_tree.aggs.(2).(0).Horse_topo.Topology.name in
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

let lookup_reference table fields =
  let module Flow_table = Horse_openflow.Flow_table in
  List.find_opt
    (fun (e : Flow_table.entry) ->
      Horse_openflow.Ofmatch.matches e.Flow_table.match_ fields)
    (Flow_table.entries table)

(* Lexicographic filters over the full candidate list: no sorted
   candidate set, no class prefix. *)
let decide_reference ~multipath rib prefix =
  let module Rib = Horse_bgp.Rib in
  let module Msg = Horse_bgp.Msg in
  let local_pref (r : Rib.route) =
    Option.value r.Rib.attrs.Msg.local_pref ~default:100
  in
  let med (r : Rib.route) = Option.value r.Rib.attrs.Msg.med ~default:0 in
  let neighbor_as (r : Rib.route) =
    match r.Rib.attrs.Msg.as_path with [] -> None | asn :: _ -> Some asn
  in
  let keep_best_by f routes =
    match routes with
    | [] | [ _ ] -> routes
    | _ ->
        let best =
          List.fold_left (fun acc r -> Stdlib.min acc (f r)) max_int routes
        in
        List.filter (fun r -> f r = best) routes
  in
  let survivors = Rib.candidates rib prefix in
  let survivors = keep_best_by (fun r -> -local_pref r) survivors in
  let survivors =
    keep_best_by
      (fun (r : Rib.route) -> List.length r.Rib.attrs.Msg.as_path)
      survivors
  in
  let survivors =
    keep_best_by
      (fun (r : Rib.route) -> Msg.origin_to_int r.Rib.attrs.Msg.origin)
      survivors
  in
  (* MED only compares routes from the same neighbour AS. *)
  let survivors =
    List.filter
      (fun r ->
        not
          (List.exists
             (fun r' -> neighbor_as r' = neighbor_as r && med r' < med r)
             survivors))
      survivors
  in
  let tiebreak (a : Rib.route) (b : Rib.route) =
    match Horse_net.Ipv4.compare a.Rib.peer_bgp_id b.Rib.peer_bgp_id with
    | 0 -> Int.compare a.Rib.peer b.Rib.peer
    | c -> c
  in
  let sorted = List.sort tiebreak survivors in
  if multipath then sorted
  else match sorted with [] -> [] | winner :: _ -> [ winner ]

let converged_reference ~table ~originate nodes =
  let prefixes =
    List.sort_uniq Horse_net.Prefix.compare (List.concat_map originate nodes)
  in
  List.for_all
    (fun node ->
      let own = originate node in
      List.for_all
        (fun prefix ->
          List.exists (Horse_net.Prefix.equal prefix) own
          || Option.is_some
               (Horse_dataplane.Fwd.lookup (table node)
                  (Horse_net.Prefix.network prefix)))
        prefixes)
    nodes
