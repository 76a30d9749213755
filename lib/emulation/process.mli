(** An emulated control-plane process.

    In the authors' system the control plane is made of real OS
    processes (Quagga daemons, SDN controllers) in network namespaces;
    here a process is a set of virtual-time timers, all of which die
    together when the process is killed — which is how experiments
    inject control-plane failures (a dead router stops sending
    KEEPALIVEs and its peers' hold timers expire, exactly as with a
    killed daemon). *)

open Horse_engine

type t

val create : Sched.t -> t

val scheduler : t -> Sched.t
val is_alive : t -> bool

val after : t -> Time.t -> (unit -> unit) -> unit
(** One-shot timer owned by the process; never fires after {!kill}. *)

val every : t -> Time.t -> (unit -> unit) -> Sched.recurring
(** Recurring timer owned by the process, first firing one period from
    now. The handle allows early cancellation; {!kill} cancels it
    too. *)

val kill : t -> unit
(** Stops the process: every pending and future timer is suppressed.
    Idempotent. *)

val restart : t -> unit
(** Respawns a killed process: it becomes alive again (timers armed
    from now on fire) and the {!on_restart} hooks run so
    the owning daemon can re-arm its timers and re-initiate sessions.
    No-op on a live process. *)

val on_kill : t -> (unit -> unit) -> unit
(** Cleanup hooks, run at every {!kill} in registration order. Hooks
    persist across kill/restart cycles. *)

val on_restart : t -> (unit -> unit) -> unit
(** Respawn hooks, run at every {!restart} in registration order;
    registered once, they fire on every crash/restart cycle. *)
