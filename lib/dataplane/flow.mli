(** A fluid flow: the data plane's unit of traffic.

    A flow has a constant offered rate (demand) and a path through the
    topology; the fluid engine assigns its actual rate by max-min fair
    share and integrates delivered bits over virtual time. Mutation
    goes through {!Fluid}, never directly. *)

open Horse_net
open Horse_engine

(** The fluid engine's accounting for one flow. Both fields are
    unboxed floats, so updating them allocates nothing and runs no
    write barrier. Read them through {!Fluid.current_rate} and
    {!Fluid.delivered_bits}, which bring them up to date first. *)
type meter = {
  mutable rate : float;  (** allocated rate as of the last solve, bps *)
  mutable delivered_bits : float;  (** integrated up to [last_integration] *)
}

type t = {
  id : int;
  key : Flow_key.t;
  demand : float;  (** aggregate offered rate of the class, bps *)
  users : int;
      (** multiplicity: one fluid flow standing for [users] users of a
          service (a {e flow class}, the million-user workload unit).
          1 for an ordinary flow; [demand] and [delivered_bits] are
          class aggregates, so per-user figures divide by this. *)
  started : Time.t;
  mutable path : Horse_topo.Spf.path;
  mutable dst : int;  (** the node [path] ends at; -1 for an empty path *)
  meter : meter;
  mutable last_integration : Time.t;
  mutable active : bool;
  mutable stopped_at : Time.t option;
}

val link_ids : t -> int list

