(** Hash-consing of BGP path attributes, with reference-counted
    lifetimes.

    A speaker sees the same attribute record thousands of times — once
    per prefix per peer — and the decision process, update-group
    keying and Adj-RIB-Out grouping all compare attributes. Interning
    maps every structurally equal {!Msg.attrs} to one shared
    {!interned} handle carrying a precomputed hash, the cached AS-path
    length, and a unique [uid], so those comparisons become integer
    equality instead of list walks. The table is per speaker (attrs
    never migrate between speakers' tables).

    Path exploration makes a speaker see far more distinct records
    than it ever holds at once, so a record lives only while something
    holds it, as in FRR's [bgp_attr_intern]/[bgp_attr_unintern]. The
    holders are the RIB's Adj-RIB-In slots and Loc-RIB entries, the
    speaker's export-memo entries and, for the length of one flush, the
    flush's NLRI buckets. Each holder {!retain}s the record when it
    takes it and {!release}s it when it lets go; the last release
    unlinks the record and hands it to the [on_free] callback. A new
    record that nobody retains is never freed, so a caller that
    interns must retain.

    The table chains the {!interned} records themselves in
    power-of-two buckets. A probe compares the stored [hash] before it
    calls {!Msg.attrs_equal}, so an unequal record almost never costs a
    structural comparison; a miss links the new record into the bucket
    it already found, and a release unlinks it in place. *)

type interned = private {
  attrs : Msg.attrs;  (** the canonical (shared) record *)
  hash : int;  (** {!Msg.attrs_hash} of [attrs] *)
  path_len : int;  (** [List.length attrs.as_path] *)
  uid : int;
      (** unique within one table and never reused, but not dense:
          records freed since leave gaps *)
  mutable refs : int;  (** current holders *)
  mutable next : interned option;  (** bucket chain *)
}

type t

val create : ?on_hit:(unit -> unit) -> ?on_miss:(unit -> unit) -> unit -> t
(** The callbacks let the owner feed telemetry counters without this
    module depending on the registry. *)

val set_on_free : t -> (interned -> unit) -> unit
(** Called with each record the moment its last holder releases it,
    after it left the table (default: nothing). The owner drops what
    it keyed on the record's [uid]. *)

val intern : t -> Msg.attrs -> interned
(** O(1) expected: one {!Msg.attrs_hash}, one bucket walk and, on a
    hit, one {!Msg.attrs_equal}. A hit allocates nothing and leaves
    the count alone. A miss inserts a record with no holder and the
    next uid, in order of insertion: a freed record that comes back is
    inserted again under a new uid. *)

val retain : interned -> unit
(** O(1): one more holder. *)

val release : t -> interned -> unit
(** O(1) expected and no allocation: one holder fewer. The last
    release unlinks the record from [t] (a walk of its bucket) and
    calls the [on_free] callback.
    @raise Invalid_argument on a record with no holder. *)

val absent : interned
(** A record no table ever returns (uid [-1]), for callers that need a
    sentinel in an empty slot. Never retain or release it. *)

val equal : interned -> interned -> bool
(** O(1): uid comparison — valid only for handles from one table. *)

val size : t -> int
(** Live records: inserted and not yet freed. *)

val hits : t -> int
