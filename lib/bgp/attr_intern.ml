type interned = {
  attrs : Msg.attrs;
  hash : int;
  path_len : int;
  uid : int;
}

(* Chained buckets of the records themselves, indexed by the low bits
   of the stored hash; the bucket count stays a power of two. *)
type t = {
  mutable buckets : interned list array;
  mutable size : int;
  mutable hits : int;
  on_hit : unit -> unit;
  on_miss : unit -> unit;
}

let nop () = ()

let create ?(on_hit = nop) ?(on_miss = nop) () =
  { buckets = Array.make 64 []; size = 0; hits = 0; on_hit; on_miss }

let index buckets hash = hash land (Array.length buckets - 1)

let grow t =
  let old = t.buckets in
  let buckets = Array.make (2 * Array.length old) [] in
  Array.iter
    (List.iter (fun i ->
         let b = index buckets i.hash in
         buckets.(b) <- i :: buckets.(b)))
    old;
  t.buckets <- buckets

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
  }

(* The stored hash screens out almost every unequal record before the
   structural comparison. *)
let rec probe hash attrs = function
  | [] -> absent
  | i :: rest ->
      if i.hash = hash && Msg.attrs_equal i.attrs attrs then i
      else probe hash attrs rest

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
      { attrs; hash; path_len = List.length attrs.Msg.as_path; uid = t.size }
    in
    t.buckets.(b) <- i :: t.buckets.(b);
    t.size <- t.size + 1;
    if t.size > 2 * Array.length t.buckets then grow t;
    t.on_miss ();
    i

let equal a b = a == b || a.uid = b.uid
let size t = t.size
let hits t = t.hits
