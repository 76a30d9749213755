(** The causal graph behind a run: who caused what, in virtual time.

    Every schedulable occurrence the engine considers interesting — a
    fault firing, a channel send (and its impaired duplicate or drop),
    a protocol message being handled, a routing decision, a FIB write
    — registers a {e node}: (virtual time, kind, detail) plus one
    parent edge pointing at the occurrence that caused it. The result
    is a forest rooted at spontaneous activity (timers armed at setup,
    poller-driven sends) whose paths are provenance chains: walking a
    FIB entry's node back to its root yields the exact
    fault → session event → UPDATE → decision → write sequence with
    per-hop virtual latencies.

    Nodes are identified by dense integer ids in creation order.
    Creation order is execution order, and every recorded field is a
    pure function of virtual time, so two same-seed runs produce
    byte-identical graphs — {!hash} is the determinism check, the
    causal analogue of [Routed_fabric.fib_fingerprint].

    The graph is append-only and capped: past [max_nodes] new nodes
    are counted in {!dropped} and {!none} is returned, so children of
    dropped occurrences simply root there. *)

type t

type id = int
(** Dense node id; {!none} marks "no cause". *)

val none : id
val is_none : id -> bool

type info = {
  at : Time.t;  (** virtual time of the occurrence *)
  kind : string;
      (** ["subsystem:event"], e.g. ["chan:send"], ["bgp:update"],
          ["fault:link_down"], ["fib:write"] — the prefix before [':']
          buckets per-protocol latency in the explainer *)
  detail : string;
  parent : id;
}

(** {2 Kinds}

    A node stores no string and no closure: only its kind and one int
    payload. The kind names a (name, printer) pair registered once,
    and the printer turns the payload back into the detail string when
    the node is read. Three unboxed words per node are all the graph
    retains. *)

type kind

val kind : string -> (int -> string) -> kind
(** [kind name print] registers a program-wide kind, typically at
    module initialisation. [print] must be a pure function of its
    argument: it is held for the life of the program, so it must not
    close over run state (a fabric, a topology) — that would keep
    every finished run alive. Use {!local_kind} for those.
    @raise Invalid_argument past 128 program-wide kinds. *)

val text_kind : string -> kind
(** A program-wide kind for rare free-text details (fault labels,
    session-down reasons): the payload is an index returned by
    {!text}, and the detail is that string, verbatim. *)

val local_kind : t -> string -> (int -> string) -> kind
(** [local_kind g name print] registers a kind on graph [g] only.
    [print] may close over the run (e.g. name nodes through a
    topology); it is released with [g]. Record it in [g] only: ids of
    local kinds are per graph.
    @raise Invalid_argument past 128 kinds on one graph. *)

val text : t -> string -> int
(** [text g s] stores [s] in [g]'s side table and returns its index,
    the payload for a {!text_kind} node. Stores nothing (and returns
    0) once [g] is full, since the node will be dropped anyway. *)

val pair : int -> int -> int
(** [pair hi lo] packs two fields into one payload, for printers that
    take them apart with {!pair_hi} and {!pair_lo}.
    @raise Invalid_argument unless [0 <= hi < 2^30] and
    [0 <= lo < 2^32]. *)

val pair_hi : int -> int
val pair_lo : int -> int

(** {2 Recording and reading} *)

val create : ?max_nodes:int -> unit -> t
(** Default cap: 4_000_000 nodes.
    @raise Invalid_argument if [max_nodes <= 0]. *)

val node : t -> at:Time.t -> kind:kind -> arg:int -> parent:id -> id
(** Appends a node with payload [arg]; returns {!none} (and counts a
    drop) once full. Allocates nothing on the minor heap: the detail
    is formatted on read ({!info}, {!chain}, {!iter}, {!hash}) by the
    kind's printer. *)

val length : t -> int
val dropped : t -> int

val info : t -> id -> info option
(** [None] for {!none} or an out-of-range id.
    @raise Invalid_argument if the node's kind was never registered on
    this graph. *)

val chain : t -> id -> info list
(** Provenance chain of a node, root first, ending with the node
    itself; [[]] for {!none}. *)

val iter : ?from:id -> t -> (id -> info -> unit) -> unit
(** Nodes [from] (default 0) to the last, in id (= creation) order;
    nodes before [from] are not formatted. *)

val hash : t -> string
(** Hex digest over every node's (at, kind, detail, parent) in id
    order, with the detail in its formatted form — identical across
    runs iff the causal graphs are identical, whatever the payload
    encoding. Wall time never enters. *)

val pp_chain : Format.formatter -> info list -> unit
(** One hop per line with the virtual latency from the previous hop:
    ["  [5.000000s] fault:link_down e1<->a1 (+0us)"]. *)
