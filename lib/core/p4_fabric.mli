(** A P4-programmable fabric — the paper's future-work item ("we plan
    to also support P4 switches"), realised.

    Every switch node runs a {!Horse_p4.Agent} executing the
    {!Horse_p4.Prog.ecmp_router} pipeline (or any program you pass). A
    controller process programs the tables over CM-observed runtime
    channels, so table population is control-plane activity that holds
    the hybrid clock in FTI, and the fluid data plane resolves flow
    paths by running each switch's pipeline interpreter. *)

open Horse_net
open Horse_topo
open Horse_p4

type t

val build :
  ?program:Prog.t ->
  cm:Connection_manager.t ->
  Topology.t ->
  (t, string) result
(** Default program: {!Prog.ecmp_router}. Fails if the program does
    not validate. *)

val program_routes : t -> unit
(** Computes shortest-path ECMP routes towards every host and sends
    the table entries (LPM routes, ECMP groups and members) to every
    switch over the runtime channels, at the current virtual time.
    Call from inside the experiment (e.g. [Experiment.at exp
    Time.zero]). *)

val agent : t -> int -> Agent.t option

val entries_sent : t -> int
val nacks_received : t -> int

val programmed : t -> bool
(** All inserts acknowledged. *)

val when_programmed : t -> (unit -> unit) -> unit
(** Runs the callback once, at the end of the instant whose Ack makes
    {!programmed} hold (now, if it already fired). *)

val path_for :
  ?hash:(Flow_key.t -> int) -> t -> Flow_key.t -> (Spf.path, string) result
(** Resolves a flow's path by executing each hop's pipeline. The
    [hash] parameter is unused (the pipeline hashes in-switch) and
    present only for interface symmetry. *)

val read_counter : t -> dpid:int -> string -> (int -> unit) -> unit
(** Asynchronous counter read over the runtime channel. *)
