(** The convergence explainer: from causal graph to critical path.

    Joins three per-run artefacts — the {!Horse_engine.Causal} graph,
    the FIB provenance list (which causal node last wrote each FIB
    entry) and the injector's reconvergence samples — to answer, for
    each [horse_faults_reconvergence_seconds] sample, {e which chain
    of events carried the fault to the slowest FIB write}: hop count,
    per-protocol latency breakdown and message count along the
    chain. *)

module Causal = Horse_engine.Causal
module Time = Horse_engine.Time

type attribution = {
  fault_label : string;
  injected_at : Time.t;
  reconverged_at : Time.t;
  fib_writes : int;
      (** FIB entries whose provenance chain passes through this
          fault *)
  hops : int;  (** length of the critical path *)
  critical : Causal.info list;
      (** the attributed chain ending at the latest such FIB write,
          root first; [[]] when no chain reaches the fault (e.g. a
          node crash detected only by hold timers) *)
  per_proto_latency : (string * Time.t) list;
      (** virtual time spent entering each subsystem along the
          critical path, keyed by kind prefix (["chan"], ["bgp"],
          ["fib"], ...), largest first *)
  messages : int;  (** channel hops on the critical path *)
}

val attribute :
  graph:Causal.t ->
  provenance:(string * string * Causal.id) list ->
  reconvergence:(string * Time.t * Time.t) list ->
  attribution list
(** [provenance] is [(node, prefix, cause)] (strings so callers above
    any fabric can use it); [reconvergence] is the injector's
    [(label, injected_at, reconverged_at)] samples. One attribution
    per sample, in sample order. *)

val pp_report : Format.formatter -> attribution list -> unit
(** All attributions under a ["Convergence explanation"] heading, each
    as the fault header, the critical path one hop per line with
    per-hop latencies, and the per-protocol breakdown; prints a note
    instead when the list is empty. *)
