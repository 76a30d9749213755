(* Hierarchical timing wheel with a due-heap front and an overflow
   heap back (see DESIGN.md "Scheduler fast path").

   Layout: three levels of 256 slots at power-of-two granularities —
   level 0 buckets 2^10 us (~1 ms, one FTI increment), level 1 2^18 us
   (~0.26 s), level 2 2^26 us (~67 s) — spanning ~4.77 h of future
   from the wheel anchor [base]; anything farther sits in an overflow
   min-heap. Entries at or past [base] live in the cheapest structure
   that covers them; entries before [base] (including past times — the
   queue stays time-agnostic) go into the [due] min-heap, ordered by
   the global (timestamp, sequence) key, from which every pop is
   served.

   Advancing: when [due] runs dry, [base] moves to the start of the
   earliest occupied slot (or the overflow watermark) — never past a
   live entry — and that slot's entries cascade: a level-0 slot spills
   into [due] wholesale, a higher-level slot re-buckets strictly below
   its level, and the overflow drains entries the wheel horizon now
   covers. Same-timestamp ties across structures resolve by processing
   the coarser structure first, so after cascading, the (time, seq)
   order inside [due] reproduces the reference heap's pop order
   exactly (test/support's Heap_queue, checked by the differential
   suite).

   Costs: schedule and cancel are O(1) (cancellation is lazy — a
   cancelled entry is dropped when its slot cascades or it surfaces in
   a heap); reschedule is cancel + O(1) reinsert on the same handle;
   each entry cascades at most [levels] times, so the per-event cost
   is O(1) amortised against heap timers' O(log n). *)

let g0_bits = 10
let slot_bits = 8
let wheel_slots = 1 lsl slot_bits
let levels = 3
let g0 = 1 lsl g0_bits

type entry = {
  time : Time.t;
  us : int;  (* Time.to_us time, cached for slot arithmetic *)
  seq : int;
  action : unit -> unit;
  cause : int;  (* opaque causal id carried to the pop site; -1 = none *)
  mutable cancelled : bool;
  mutable loc : loc;
}

and loc = Nowhere | In_due | In_overflow | In_slot of int
(* In_slot k: k = level * wheel_slots + slot index. Nowhere: popped,
   cleared, or dropped as garbage — no structure holds it. *)

(* Min-heap over (us, seq) with lazy deletion, used for both [due] and
   [overflow]. [hlive] counts live (non-cancelled) entries physically
   present; cancellation decrements it externally via [dec_loc]. *)
type heap = { mutable arr : entry array; mutable len : int; mutable hlive : int }

type t = {
  (* Wheel anchor, microseconds, always a multiple of [g0] and
     monotone: every wheel/overflow entry is >= base, every due entry
     is < base. *)
  mutable base : int;
  due : heap;
  overflow : heap;
  slots : entry list array;  (* levels * wheel_slots buckets, newest first *)
  slot_live : int array;
  level_live : int array;  (* live entries per level, to skip empty scans *)
  mutable next_seq : int;
  mutable live : int;
}

type handle = { q : t; mutable cur : entry }

let dummy =
  {
    time = Time.zero;
    us = 0;
    seq = -1;
    action = (fun () -> ());
    cause = -1;
    cancelled = true;
    loc = Nowhere;
  }

let heap_make () = { arr = Array.make 64 dummy; len = 0; hlive = 0 }

let create () =
  {
    base = 0;
    due = heap_make ();
    overflow = heap_make ();
    slots = Array.make (levels * wheel_slots) [];
    slot_live = Array.make (levels * wheel_slots) 0;
    level_live = Array.make levels 0;
    next_seq = 0;
    live = 0;
  }

(* --- the two heaps ---------------------------------------------------- *)

let before a b = if a.us = b.us then a.seq < b.seq else a.us < b.us

let hswap h i j =
  let tmp = h.arr.(i) in
  h.arr.(i) <- h.arr.(j);
  h.arr.(j) <- tmp

let rec hsift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before h.arr.(i) h.arr.(parent) then begin
      hswap h i parent;
      hsift_up h parent
    end
  end

let rec hsift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.len && before h.arr.(l) h.arr.(!smallest) then smallest := l;
  if r < h.len && before h.arr.(r) h.arr.(!smallest) then smallest := r;
  if !smallest <> i then begin
    hswap h i !smallest;
    hsift_down h !smallest
  end

let hcompact h =
  let j = ref 0 in
  for i = 0 to h.len - 1 do
    let e = h.arr.(i) in
    if not e.cancelled then begin
      h.arr.(!j) <- e;
      incr j
    end
    else e.loc <- Nowhere
  done;
  Array.fill h.arr !j (h.len - !j) dummy;
  h.len <- !j;
  for i = (h.len / 2) - 1 downto 0 do
    hsift_down h i
  done

let heap_push h e =
  if h.len >= 64 && h.len - h.hlive > h.len / 2 then hcompact h;
  if h.len = Array.length h.arr then begin
    let arr = Array.make (2 * Array.length h.arr) dummy in
    Array.blit h.arr 0 arr 0 h.len;
    h.arr <- arr
  end;
  h.arr.(h.len) <- e;
  h.len <- h.len + 1;
  h.hlive <- h.hlive + 1;
  hsift_up h (h.len - 1)

let heap_remove_top h =
  h.len <- h.len - 1;
  h.arr.(0) <- h.arr.(h.len);
  h.arr.(h.len) <- dummy;
  if h.len > 0 then hsift_down h 0

(* Cancelled entries at the top are garbage: their [hlive] share was
   already released at cancel time. *)
let rec heap_peek h =
  if h.len = 0 then None
  else begin
    let e = h.arr.(0) in
    if e.cancelled then begin
      e.loc <- Nowhere;
      heap_remove_top h;
      heap_peek h
    end
    else Some e
  end

let heap_pop h =
  match heap_peek h with
  | None -> None
  | Some e ->
      heap_remove_top h;
      h.hlive <- h.hlive - 1;
      Some e

(* --- placement -------------------------------------------------------- *)

(* Bucket an entry (us >= base) into the lowest level whose current
   window covers it. The window test is index-based — [n] distinct
   per level — so a slot never mixes entries from different wheel
   revolutions. *)
let insert_wheel t e =
  let us = e.us in
  let rec place l =
    if l >= levels then begin
      e.loc <- In_overflow;
      heap_push t.overflow e
    end
    else begin
      let sh = g0_bits + (slot_bits * l) in
      let n = us lsr sh in
      if n - (t.base lsr sh) < wheel_slots then begin
        let k = (l * wheel_slots) + (n land (wheel_slots - 1)) in
        e.loc <- In_slot k;
        t.slots.(k) <- e :: t.slots.(k);
        t.slot_live.(k) <- t.slot_live.(k) + 1;
        t.level_live.(l) <- t.level_live.(l) + 1
      end
      else place (l + 1)
    end
  in
  place 0

let insert t e =
  if e.us < t.base then begin
    e.loc <- In_due;
    heap_push t.due e
  end
  else insert_wheel t e

let make_entry t time action cause =
  let e =
    {
      time;
      us = Time.to_us time;
      seq = t.next_seq;
      action;
      cause;
      cancelled = false;
      loc = Nowhere;
    }
  in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  insert t e;
  e

let schedule t ?(cause = -1) time action =
  { q = t; cur = make_entry t time action cause }

(* Release the live-count share of a cancelled entry from whichever
   structure holds it; the entry itself is garbage-collected lazily. *)
let dec_loc t = function
  | Nowhere -> ()
  | In_due -> t.due.hlive <- t.due.hlive - 1
  | In_overflow -> t.overflow.hlive <- t.overflow.hlive - 1
  | In_slot k ->
      t.slot_live.(k) <- t.slot_live.(k) - 1;
      t.level_live.(k / wheel_slots) <- t.level_live.(k / wheel_slots) - 1

let retire t (e : entry) =
  if not e.cancelled then begin
    e.cancelled <- true;
    (* Entries already popped (or cleared) no longer count. *)
    if e.loc <> Nowhere then begin
      dec_loc t e.loc;
      t.live <- t.live - 1
    end
  end

let cancel (h : handle) = retire h.q h.cur
let is_cancelled (h : handle) = h.cur.cancelled

let reschedule (h : handle) at =
  retire h.q h.cur;
  h.cur <- make_entry h.q at h.cur.action h.cur.cause

(* --- advancing the wheel ---------------------------------------------- *)

(* Earliest occupied slot of a level, as (absolute slot start, slot
   array index). Scans the level's 256-slot window from [base]
   upward; O(1) skip when the level is empty. *)
let level_candidate t l =
  if t.level_live.(l) = 0 then None
  else begin
    let sh = g0_bits + (slot_bits * l) in
    let a = t.base lsr sh in
    let rec scan k =
      if k = wheel_slots then None
      else begin
        let n = a + k in
        let idx = (l * wheel_slots) + (n land (wheel_slots - 1)) in
        if t.slot_live.(idx) > 0 then Some (n lsl sh, l, idx) else scan (k + 1)
      end
    in
    scan 0
  end

(* Pull entries forward until the earliest live entry (if any) sits in
   [due]. [base] only ever moves to the start of the earliest occupied
   structure, so no live entry is passed over; on equal starts the
   coarser structure cascades first, which preserves the global
   (time, seq) pop order. *)
let rec refill t =
  if t.due.hlive = 0 && t.live > 0 then begin
    let best = ref None in
    for l = 0 to levels - 1 do
      match level_candidate t l with
      | None -> ()
      | Some (start, _, _) as c -> (
          match !best with
          | Some (s, _, _) when s < start -> ()
          | _ -> best := c)
    done;
    let overflow_start =
      match heap_peek t.overflow with
      | Some e -> Some (e.us land lnot (g0 - 1))
      | None -> None
    in
    let use_overflow =
      match (overflow_start, !best) with
      | Some os, Some (s, _, _) -> os <= s
      | Some _, None -> true
      | None, _ -> false
    in
    if use_overflow then begin
      (match overflow_start with
      | Some os -> t.base <- max t.base os
      | None -> ());
      (* Re-anchored: drain every overflow entry the level-2 window
         now covers back through normal placement. *)
      let sh2 = g0_bits + (slot_bits * (levels - 1)) in
      let rec drain () =
        match heap_peek t.overflow with
        | Some e when (e.us lsr sh2) - (t.base lsr sh2) < wheel_slots ->
            ignore (heap_pop t.overflow);
            insert_wheel t e;
            drain ()
        | Some _ | None -> ()
      in
      drain ();
      refill t
    end
    else
      match !best with
      | None -> ()  (* unreachable: live > 0 implies some structure holds it *)
      | Some (start, l, idx) ->
          let es = t.slots.(idx) in
          t.slots.(idx) <- [];
          t.level_live.(l) <- t.level_live.(l) - t.slot_live.(idx);
          t.slot_live.(idx) <- 0;
          if l = 0 then begin
            (* The whole slot becomes due; new arrivals inside its
               window must join [due] too, or they could hide behind
               an already-extracted slot. *)
            t.base <- max t.base start + g0;
            List.iter
              (fun e ->
                if e.cancelled then e.loc <- Nowhere
                else begin
                  e.loc <- In_due;
                  heap_push t.due e
                end)
              es
          end
          else begin
            t.base <- max t.base start;
            (* Entries of a level-l slot always rebucket strictly
               below level l, so cascades terminate. *)
            List.iter
              (fun e ->
                if e.cancelled then e.loc <- Nowhere else insert_wheel t e)
              es
          end;
          refill t
  end

(* --- the queue API ---------------------------------------------------- *)

let size t = t.live
let is_empty t = t.live = 0

let next_time t =
  refill t;
  match heap_peek t.due with Some e -> Some e.time | None -> None

let take_due t e =
  ignore (heap_pop t.due);
  e.loc <- Nowhere;
  t.live <- t.live - 1;
  Some (e.time, e.action, e.cause)

let pop t =
  refill t;
  match heap_peek t.due with None -> None | Some e -> take_due t e

let pop_until t limit =
  refill t;
  match heap_peek t.due with
  | Some e when Time.(e.time <= limit) -> take_due t e
  | Some _ | None -> None

let clear t =
  let clear_heap h =
    for i = 0 to h.len - 1 do
      h.arr.(i).loc <- Nowhere
    done;
    Array.fill h.arr 0 h.len dummy;
    h.len <- 0;
    h.hlive <- 0
  in
  clear_heap t.due;
  clear_heap t.overflow;
  for k = 0 to (levels * wheel_slots) - 1 do
    List.iter (fun e -> e.loc <- Nowhere) t.slots.(k);
    t.slots.(k) <- [];
    t.slot_live.(k) <- 0
  done;
  Array.fill t.level_live 0 levels 0;
  t.live <- 0

type occupancy = { occ_due : int; occ_levels : int array; occ_overflow : int }

let occupancy t =
  {
    occ_due = t.due.hlive;
    occ_levels = Array.copy t.level_live;
    occ_overflow = t.overflow.hlive;
  }
