(** Hash-consing of BGP path attributes, with reference-counted
    lifetimes.

    A speaker sees the same attribute record thousands of times — once
    per prefix per peer — and the decision process, update-group
    keying and Adj-RIB-Out grouping all compare attributes. Interning
    maps every structurally equal {!Msg.attrs} to one shared
    {!interned} handle carrying a precomputed hash, the cached AS-path
    length, and a unique [uid], so those comparisons become integer
    equality instead of list walks. One table serves every speaker of
    a fabric, as FRR's one attribute hash serves all its BGP
    instances: the record a sender's export produced is the record its
    receivers find when they decode the UPDATE.

    Path exploration makes a fabric see far more distinct records
    than it ever holds at once, so a record lives only while something
    holds it, as in FRR's [bgp_attr_intern]/[bgp_attr_unintern]. The
    holders are the RIBs' Adj-RIB-In slots and Loc-RIB entries, memo
    entries and, for the length of one flush, a flush's NLRI buckets.
    Each holder {!retain}s the record when it takes it and {!release}s
    it when it lets go; the last release unlinks the record. A new
    record that nobody retains is never freed, so a caller that
    interns must retain.

    A record also carries a short {e memo}: one entry per key (a
    speaker's update group, {!memo_key}) that maps this record, as an
    export's input, to that export's post-policy output ([None] when
    the policy rejects it). An entry holds its output, and lives as
    long as its input: freeing a record releases its entries'
    outputs.

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
  mutable memo : memo;  (** newest entry first *)
}

and memo = private
  | No_memo
  | Memo of { key : int; out : interned option; rest : memo }

type t

val create :
  ?on_hit:(unit -> unit) ->
  ?on_miss:(unit -> unit) ->
  ?on_free:(unit -> unit) ->
  unit ->
  t
(** The callbacks let the owner feed telemetry counters without this
    module depending on the registry: [on_miss] runs when a record is
    inserted and [on_free] when one leaves the table. *)

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
    release unlinks the record from [t] (a walk of its bucket), calls
    the [on_free] callback and releases the outputs of the record's
    memo entries, which frees in turn each output that loses its last
    holder.
    @raise Invalid_argument on a record with no holder. *)

val memo_key : t -> int
(** A key no other caller of [memo_key] on [t] gets. *)

val find_memo : interned -> int -> interned option
(** O(entries), no allocation: the output memoized under the key.
    @raise Not_found if the record has no entry under the key. *)

val add_memo : interned -> int -> interned option -> unit
(** [add_memo input key out] memoizes [out] under [key] on [input],
    which must not have an entry under [key] yet; the entry retains
    [out] until [input] is freed.
    @raise Invalid_argument on an input with no holder (nothing would
    ever free it). *)

val absent : interned
(** A record no table ever returns (uid [-1]), for callers that need a
    sentinel in an empty slot. Never retain or release it. *)

val equal : interned -> interned -> bool
(** O(1): uid comparison — valid only for handles from one table. *)

val size : t -> int
(** Live records: inserted and not yet freed. *)

val hits : t -> int
