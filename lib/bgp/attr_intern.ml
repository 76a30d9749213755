type interned = {
  attrs : Msg.attrs;
  hash : int;
  path_len : int;
  uid : int;
  mutable refs : int;
  mutable next : interned option;
  mutable memo : memo;
}

and memo = No_memo | Memo of { key : int; out : interned option; rest : memo }

(* Intrusive chains of the records themselves, indexed by the low bits
   of the stored hash; the bucket count stays a power of two. A record
   gets its one [Some] link when it is inserted; moving that link
   around is how [grow] rehashes and [release] unlinks, so neither
   allocates. [None] ends a chain, and a memo entry leads from an
   input to an eBGP export of it, whose AS path is longer, so records
   stay acyclic for structural equality and hashing. *)
type t = {
  mutable buckets : interned option array;
  mutable size : int;  (* live records *)
  mutable next_uid : int;
  mutable next_key : int;
  mutable hits : int;
  on_hit : unit -> unit;
  on_miss : unit -> unit;
  on_free : unit -> unit;
}

(* What [probe] returns on a miss, so a hit allocates nothing. *)
let absent =
  {
    attrs =
      {
        Msg.origin = Msg.Igp;
        as_path = [];
        next_hop = Horse_net.Ipv4.any;
        med = None;
        local_pref = None;
        communities = [];
      };
    hash = -1;
    path_len = 0;
    uid = -1;
    refs = 0;
    next = None;
    memo = No_memo;
  }

let nop () = ()

let create ?(on_hit = nop) ?(on_miss = nop) ?(on_free = nop) () =
  {
    buckets = Array.make 64 None;
    size = 0;
    next_uid = 0;
    next_key = 0;
    hits = 0;
    on_hit;
    on_miss;
    on_free;
  }

let index buckets hash = hash land (Array.length buckets - 1)

let rec relink buckets = function
  | None -> ()
  | Some i as link ->
      let rest = i.next in
      let b = index buckets i.hash in
      i.next <- buckets.(b);
      buckets.(b) <- link;
      relink buckets rest

let grow t =
  let buckets = Array.make (2 * Array.length t.buckets) None in
  Array.iter (relink buckets) t.buckets;
  t.buckets <- buckets

(* The stored hash screens out almost every unequal record before the
   structural comparison. *)
let rec probe hash attrs = function
  | None -> absent
  | Some i ->
      if i.hash = hash && Msg.attrs_equal i.attrs attrs then i
      else probe hash attrs i.next

let intern t attrs =
  let hash = Msg.attrs_hash attrs in
  let b = index t.buckets hash in
  let found = probe hash attrs t.buckets.(b) in
  if found != absent then begin
    t.hits <- t.hits + 1;
    t.on_hit ();
    found
  end
  else
    let i =
      {
        attrs;
        hash;
        path_len = List.length attrs.Msg.as_path;
        uid = t.next_uid;
        refs = 0;
        next = t.buckets.(b);
        memo = No_memo;
      }
    in
    t.buckets.(b) <- Some i;
    t.next_uid <- t.next_uid + 1;
    t.size <- t.size + 1;
    if t.size > 2 * Array.length t.buckets then grow t;
    t.on_miss ();
    i

let retain i = i.refs <- i.refs + 1

let not_linked () = invalid_arg "Attr_intern.release: record not in its table"

(* [i] is in the chain after [prev]. *)
let rec unlink_after prev i =
  match prev.next with
  | Some next when next == i -> prev.next <- i.next
  | Some next -> unlink_after next i
  | None -> not_linked ()

(* A freed record's memo goes with it: each entry lets go of its
   output, which may free that record in turn. *)
let rec release t i =
  if i.refs <= 0 then invalid_arg "Attr_intern.release: record not retained";
  i.refs <- i.refs - 1;
  if i.refs = 0 then begin
    let b = index t.buckets i.hash in
    (match t.buckets.(b) with
    | Some head when head == i -> t.buckets.(b) <- i.next
    | Some head -> unlink_after head i
    | None -> not_linked ());
    i.next <- None;
    t.size <- t.size - 1;
    t.on_free ();
    let memo = i.memo in
    i.memo <- No_memo;
    release_memo t memo
  end

and release_memo t = function
  | No_memo -> ()
  | Memo { out; rest; _ } ->
      (match out with Some o -> release t o | None -> ());
      release_memo t rest

let memo_key t =
  let k = t.next_key in
  t.next_key <- k + 1;
  k

let rec find_in key = function
  | No_memo -> raise_notrace Not_found
  | Memo m -> if m.key = key then m.out else find_in key m.rest

let find_memo i key = find_in key i.memo

let add_memo i key out =
  if i.refs <= 0 then invalid_arg "Attr_intern.add_memo: input not retained";
  (match out with Some o -> retain o | None -> ());
  i.memo <- Memo { key; out; rest = i.memo }

let equal a b = a == b || a.uid = b.uid
let size t = t.size
let hits t = t.hits
