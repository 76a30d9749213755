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
