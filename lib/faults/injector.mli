(** Arms a {!Plan} on a scheduler against a fabric.

    The injector turns the plan into concrete scheduler events:
    explicit events fire at their timestamps, generators are expanded
    {e at arm time} into a deterministic flap sequence using one
    {!Horse_engine.Rng.split_key} stream per fault site. Application
    goes through a {!target} — a record of callbacks the fabrics
    provide — so the injector knows nothing about BGP, OSPF or SDN.

    Observability: every injection increments
    [horse_faults_injected_total] (labeled by fault kind) and opens a
    telemetry span; reconvergence — the virtual time from an
    injection until the target reports converged again (FIBs complete,
    sessions re-established) — is sampled by a periodic check and
    recorded in the [horse_faults_reconvergence_seconds] histogram and
    in {!reconvergence}. *)

open Horse_engine

type target = {
  describe : string;  (** for traces/reports, e.g. ["routed-fabric"] *)
  link_down : a:string -> b:string -> bool;
  link_up : a:string -> b:string -> bool;
  node_crash : string -> bool;
  node_restart : string -> bool;
  session_reset : a:string -> b:string -> bool;
  impair :
    a:string ->
    b:string ->
    rng:Rng.t ->
    Horse_emulation.Channel.impairment option -> bool;
      (** [None] clears; the rng is the site's seeded stream and must
          be handed to {!Horse_emulation.Channel.set_impairment} *)
  links : unit -> (string * string) list;
      (** every failable link, by endpoint names — used to expand
          [Partition]/[Heal] into per-link cuts *)
  converged : unit -> bool;
      (** "the control plane has healed": FIBs complete and sessions /
          adjacencies re-established, as the fabric defines it *)
}
(** Callbacks return whether the fault applied ([false] = unknown
    name or inapplicable state; recorded as skipped, not an error). *)

type record = {
  at : Time.t;
  label : string;
  applied : bool;
  cause : Causal.id;
      (** root of the fault's causal subtree; {!Causal.none} when
          tracing is off or the action did not apply *)
}

type t

val arm : Sched.t -> target:target -> Plan.t -> t
(** Expands and schedules the whole plan now. The target's [converged]
    is sampled every 50 ms of virtual time, so recorded reconvergence
    times are upper bounds quantized by that period. *)

val injected : t -> int
(** Faults applied so far. *)

val skipped : t -> int

val pending : t -> int
(** Injections not yet matched by a converged observation. *)

val trace_labels : t -> string list
(** The chronological injection trace as ["<at_us> <label>"] lines;
    with equal seed + plan two runs produce identical traces (the
    determinism acceptance check). *)

val reconvergence : t -> (string * Time.t * Time.t) list
(** [(label, injected_at, reconverged_at)], chronological by
    injection. A fault injected while the fabric is still healing
    from an earlier one shares its reconvergence observation. *)

val report_json : t -> Horse_telemetry.Json.t
(** The per-fault record for run reports and bench artifacts. *)
