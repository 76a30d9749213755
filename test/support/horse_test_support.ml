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
