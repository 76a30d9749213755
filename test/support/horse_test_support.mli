(** Shared helpers for the unit-test executables. *)

val qtest :
  ?count:int ->
  string ->
  'a QCheck2.Gen.t ->
  ('a -> bool) ->
  unit Alcotest.test_case
(** [qtest name gen prop] is a QCheck property as an Alcotest case
    (default 200 draws). Every case seeds its own generator from
    [QCHECK_SEED] when that is set to an integer, and from a fixed
    default otherwise. *)
