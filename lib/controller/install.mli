(** Shared helper: turn a topology path into FLOW_MODs along the way.

    Used by both ECMP and Hedera; kept separate so the applications
    stay at policy altitude. *)

open Horse_topo
open Horse_openflow

val install_path :
  Controller.t ->
  Env.t ->
  match_:Ofmatch.t ->
  ?priority:int ->
  Spf.path ->
  unit
(** Sends one FLOW_MOD ADD per switch hop (default priority 10), with
    no timeouts and cookie 0. *)

val first_hop_port : Env.t -> Spf.path -> (int * int) option
(** The (dpid, port) of the first switch hop — where a held packet
    should be released with PACKET_OUT. *)
