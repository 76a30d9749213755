(** Hash-consing of BGP path attributes.

    A speaker sees the same attribute record thousands of times — once
    per prefix per peer — and the decision process, update-group
    keying and Adj-RIB-Out grouping all compare attributes. Interning
    maps every structurally equal {!Msg.attrs} to one shared
    {!interned} handle carrying a precomputed hash, the cached AS-path
    length, and a dense [uid], so those comparisons become integer
    equality instead of list walks. The table is per speaker (attrs
    never migrate between speakers' tables).

    The table chains the {!interned} records themselves in
    power-of-two buckets. A probe compares the stored [hash] before it
    calls {!Msg.attrs_equal}, so an unequal record almost never costs a
    structural comparison; a miss links the new record into the bucket
    it already found. *)

type interned = private {
  attrs : Msg.attrs;  (** the canonical (shared) record *)
  hash : int;  (** {!Msg.attrs_hash} of [attrs] *)
  path_len : int;  (** [List.length attrs.as_path] *)
  uid : int;  (** dense, unique within one table *)
}

type t

val create : ?on_hit:(unit -> unit) -> ?on_miss:(unit -> unit) -> unit -> t
(** The callbacks let the owner feed telemetry counters without this
    module depending on the registry. *)

val intern : t -> Msg.attrs -> interned
(** O(1) expected: one {!Msg.attrs_hash}, one bucket walk and, on a
    hit, one {!Msg.attrs_equal}. A hit allocates nothing. Uids are
    assigned in order of first sight. *)

val absent : interned
(** A record no table ever returns (uid [-1]), for callers that need a
    sentinel in an empty slot. *)

val equal : interned -> interned -> bool
(** O(1): uid comparison — valid only for handles from one table. *)

val size : t -> int
(** Distinct attribute records interned so far. *)

val hits : t -> int
