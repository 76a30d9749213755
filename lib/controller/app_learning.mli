(** A classic L2 learning switch application.

    Not part of the paper's demonstration, but the canonical first SDN
    app; included as the quickstart example's control plane and as a
    second exerciser of the PACKET_IN / PACKET_OUT / FLOW_MOD path
    with real Ethernet frames. *)

open Horse_net

type t

val install : Controller.t -> t
(** Learned entries have priority 5 and an idle timeout of 60 s. *)

val lookup : t -> dpid:int -> Mac.t -> int option
(** The port this app has learned for a MAC on a switch. *)

val macs_learned : t -> int
(** Total (dpid, mac) bindings currently known. *)

val floods : t -> int
val unicasts : t -> int
