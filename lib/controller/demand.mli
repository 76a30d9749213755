(** Hedera's demand estimation (Al-Fares et al., NSDI 2010, Fig. 4).

    Given only which host pairs have active flows, estimate each
    flow's {e natural demand}: the rate it would achieve in an ideal
    non-blocking fabric where every host NIC has capacity 1. The
    algorithm alternates two passes until a fixpoint:

    - {b source pass}: each sender divides its spare capacity equally
      among its not-yet-limited flows;
    - {b receiver pass}: each overloaded receiver caps its incoming
      flows fairly, marking the capped flows receiver-limited
      (converged).

    Demands are fractions of NIC capacity in [0, 1]. *)

type flow = { src : int; dst : int; tag : int (** caller's identifier *) }

val estimate : flow list -> (flow * float) list
(** Returns each flow with its estimated demand, in input order. The
    fixpoint loop is bounded at 100 rounds; the algorithm converges far
    earlier on realistic inputs. *)

val big_flows : ?threshold:float -> (flow * float) list -> (flow * float) list
(** Flows whose estimated demand is at least [threshold] (default 0.1,
    the paper's 10% of NIC rate). *)
