(** A P4-programmable fabric — the paper's future-work item ("we plan
    to also support P4 switches"), realised.

    Every switch node runs a {!Horse_p4.Agent} executing the
    {!Horse_p4.Prog.ecmp_router} pipeline. A
    controller process programs the tables over CM-observed runtime
    channels, so table population is control-plane activity that holds
    the hybrid clock in FTI, and the fluid data plane resolves flow
    paths by running each switch's pipeline interpreter. *)

open Horse_net
open Horse_topo

type t

val build : cm:Connection_manager.t -> Topology.t -> (t, string) result
(** Fails if the pipeline or a switch's ports do not validate. *)

val program_routes : t -> unit
(** Computes shortest-path ECMP routes towards every host and sends
    the table entries (LPM routes, ECMP groups and members) to every
    switch over the runtime channels, at the current virtual time.
    Call from inside the experiment (e.g. [Experiment.at exp
    Time.zero]). *)

val entries_sent : t -> int
val nacks_received : t -> int

val programmed : t -> bool
(** All inserts acknowledged. *)

val when_programmed : t -> (unit -> unit) -> unit
(** Runs the callback once, at the end of the instant whose Ack makes
    {!programmed} hold (now, if it already fired). *)

val path_for : t -> Flow_key.t -> (Spf.path, string) result
(** Resolves a flow's path by executing each hop's pipeline, which
    hashes the flow in-switch. *)

val read_counter : t -> dpid:int -> string -> (int -> unit) -> unit
(** Asynchronous counter read over the runtime channel. *)
