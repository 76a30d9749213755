(** Hedera dynamic flow scheduling (Al-Fares et al., NSDI 2010) — the
    demonstration's TE approach (ii).

    New flows are first routed reactively by 5-tuple ECMP (embedded
    {!App_ecmp}). Every polling interval — 5 seconds, as in the
    paper — the application:

    + requests flow statistics from every edge switch (real
      STATS_REQUEST/REPLY round trips, so each poll pulls the hybrid
      clock back into FTI mode);
    + reconstructs the active flow set from the returned exact-match
      entries;
    + runs the NSDI demand estimator ({!Demand}) on the host-pair
      matrix;
    + selects flows whose estimated demand exceeds the threshold (10%
      of NIC rate);
    + places them with Global First Fit (or Simulated Annealing) over
      their equal-cost paths ({!Placer});
    + installs higher-priority entries for flows whose placement
      changed.

    This periodic control activity is exactly why Hedera spends more
    wall time in FTI mode than the one-shot ECMP schemes in Figure 3's
    experiment. *)

open Horse_net
open Horse_topo

type placer_kind = Gff | Annealing

type t

val install : ?placer:placer_kind -> Controller.t -> Env.t -> t
(** Default placer: GFF. The poll interval is 5 s, the threshold 0.1,
    NICs 1 Gbps and the annealing seed 42. Polling starts when the
    first switch handshake completes. *)

val on_reroute : t -> (Flow_key.t -> Spf.path -> unit) -> unit
(** Observe placement changes (the experiment scaffolding re-paths the
    corresponding fluid flows). *)
