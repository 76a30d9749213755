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

module Fair_share_reference = Fair_share_reference
(** The progressive-filling reference for
    [Horse_dataplane.Fair_share.Delta]. *)

module Fti_reference = Fti_reference
(** FTI stepped one increment at a time: the oracle for
    [Horse_engine.Sched]'s closed-form increment accounting. *)

val smoke_storm_plan : unit -> Horse_faults.Plan.t
(** The k=4 fat-tree fault storm that the fault, scheduler and trace
    smokes share: link flaps (seed 5, a 4 s period from 5 s to 15 s,
    1 s down each) on every 9th inter-switch link of
    {!Horse_topo.Topology.switch_links}, plus a crash of [agg-p2-0] at
    6 s and its restart at 12 s. *)

val lookup_reference :
  Horse_openflow.Flow_table.t ->
  Horse_openflow.Ofmatch.fields ->
  Horse_openflow.Flow_table.entry option
(** The linear-scan oracle for [Horse_openflow.Flow_table.lookup]: the
    first of [Flow_table.entries] (match order) whose match admits the
    packet. It returns the same physical record the classifier does. *)

val decide_reference :
  multipath:bool ->
  Horse_bgp.Rib.t ->
  Horse_net.Prefix.t ->
  Horse_bgp.Rib.route list
(** The oracle for [Horse_bgp.Rib.refresh_id]'s decision: the RFC 4271
    steps as a chain of filters over [Rib.candidates], then the BGP-id
    and peer-id tiebreak. It never reads the sorted candidate lists
    that [refresh_id] decides over incrementally. *)

val bgp_decode_reference : Bytes.t -> (Horse_bgp.Msg.t, string) result
(** The oracle for [Horse_bgp.Msg.decode]: the decoder it replaced,
    which reads every field through a [Horse_net.Wire] reader that
    returns a [result]. On any input the two must agree: equal messages
    under [Msg.equal], or byte-equal error strings. *)

val converged_reference :
  table:(int -> Horse_dataplane.Fwd.t) ->
  originate:(int -> Horse_net.Prefix.t list) ->
  int list ->
  bool
(** The full-scan oracle for the routed fabrics' convergence latch
    ([Horse_core.Routed_core.is_converged]): every node of the list
    resolves, by [Fwd.lookup] on the network address, every prefix
    that some node of the list originates and it does not. *)

val all_pairs_hops : Horse_topo.Topology.t -> int array array
(** Floyd–Warshall hop-count matrix ([max_int] = unreachable): the
    O(n^3) oracle for [Horse_topo.Spf]'s shortest-path distances. *)
