(** The P4 switch agent: a programmable pipeline plus its runtime
    control channel.

    The P4 analogue of {!Horse_openflow.Switch}: it answers
    {!Runtime} requests (table writes, counter reads) arriving over an
    emulated channel, and the simulated data plane consults
    {!process} to forward fluid flows through the pipeline. *)

open Horse_emulation

type t

val create :
  ?trace:Horse_engine.Trace.t ->
  Process.t ->
  program:Prog.t ->
  ports:(int * int) list ->
  Channel.endpoint ->
  (t, string) result
(** [ports] maps pipeline port numbers to directed out-link ids.
    Fails if the program does not validate or ports repeat. *)

val link_of_port : t -> int -> int option
val port_of_link : t -> int -> int option

val process : t -> (string * int) list -> Interp.outcome
(** Runs one packet's metadata through the pipeline. *)

val writes_applied : t -> int
val nacks_sent : t -> int
