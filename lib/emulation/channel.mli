(** Reliable, ordered, duplex control-plane channels.

    This is the stand-in for the TCP connections that carry BGP
    sessions and OpenFlow channels between real daemons in the
    authors' implementation. Messages are opaque byte strings —
    protocol layers serialize real wire formats into them — delivered
    to the peer endpoint's receiver after a fixed latency.

    Every send is reported to the channel's observer (installed by the
    Connection Manager) {e at send time}; this is the hook that drives
    the DES→FTI transition. *)

open Horse_engine

type t
(** A duplex channel. *)

type endpoint
(** One side of a channel. *)

type direction = A_to_b | B_to_a

type impairment = {
  loss : float;  (** per-message drop probability, [0, 1] *)
  extra_delay : Time.t;  (** added to the channel latency *)
  jitter : Time.t;  (** uniform extra delay in [0, jitter) per message *)
  duplicate : float;  (** probability a message is delivered twice *)
}
(** A lossy/slow link model applied at send time (see
    {!set_impairment}). With jitter, deliveries may reorder — exactly
    the stress a real flapping WAN path puts on a routing session. *)

val create : Sched.t -> ?latency:Time.t -> unit -> t
(** Default latency 1 ms (a LAN-ish control RTT of 2 ms). *)

val endpoints : t -> endpoint * endpoint
(** The (a, b) sides. *)

val peer : endpoint -> endpoint

val set_receiver : endpoint -> (Bytes.t -> unit) -> unit
(** Installs the message handler for traffic {e arriving at} this
    endpoint. Messages delivered while no receiver is installed are
    queued and flushed (in order, immediately) when one is
    installed. *)

val send : endpoint -> Bytes.t -> unit
(** Sends towards the peer endpoint; delivery happens [latency] later
    in virtual time. Silently dropped on a closed channel (as TCP
    data after a reset would be). *)

val send_many : endpoint -> Bytes.t list -> unit
(** Like iterating {!send}, but the whole batch is delivered (in
    order) by a single scheduler event — a flush of k packed UPDATEs
    costs one event instead of k. Counters and the observer still see
    every message. *)

val send_kind : Causal.kind
(** The ["chan:send"] causal node of one message; payload: its length,
    printed ["<len>B"]. *)

val batch_kind : Causal.kind
(** The ["chan:send"] node of a {!send_many} batch; payload: the
    message count, printed ["batch n=<count>"]. *)

val set_observer : t -> (direction -> Bytes.t -> unit) -> unit
(** At most one observer; it sees every message at send time, before
    latency. *)

val set_on_close : endpoint -> (unit -> unit) -> unit
(** Runs when the channel closes (either side), once. *)

val close : t -> unit
(** Closes both directions; undelivered messages are dropped.
    Idempotent. *)

val is_open : t -> bool
(** Both sides still open. *)

val messages_sent : t -> int
val bytes_sent : t -> int

val set_impairment : t -> rng:Rng.t -> impairment -> unit
(** Applies an impairment to both directions from now on. Draws come
    from [rng] in a fixed per-message order, so a seeded stream
    reproduces drop/duplicate/jitter decisions exactly. Counters and
    the observer still see every message at send time (the sender did
    send it; the link ate it).
    @raise Invalid_argument on probabilities outside [0, 1] or
    negative delays. *)

val clear_impairment : t -> unit

val impairment : t -> impairment option
val impaired_dropped : t -> int
val impaired_duplicated : t -> int
