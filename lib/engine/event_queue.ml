(* Binary min-heap over (timestamp, insertion sequence) with lazy
   cancellation. Cancelling marks the entry and releases its share of
   [live] at once, so [size] stays O(1); the entry itself is dropped
   when it surfaces at the top, or by a compaction sweep once
   cancelled entries outnumber live ones. [reschedule] retires the
   handle's current entry and points the handle at a fresh one that
   shares the action: a timer re-aimed on every received message costs
   one O(log n) push and leaves one garbage entry until the next
   sweep. *)

type entry = {
  time : Time.t;
  us : int;  (* Time.to_us time, cached for unboxed comparisons *)
  seq : int;
  action : unit -> unit;
  cause : int;  (* opaque causal id carried to the pop site; -1 = none *)
  mutable cancelled : bool;
  mutable in_heap : bool;
}

type t = {
  mutable heap : entry array;
  mutable len : int;
  mutable next_seq : int;
  mutable live : int;  (* non-cancelled entries in [heap] *)
}

(* A handle outlives any one incarnation of its event: [reschedule]
   retires the current entry and points the handle at a fresh one. *)
type handle = { q : t; mutable cur : entry }

let dummy =
  {
    time = Time.zero;
    us = 0;
    seq = -1;
    action = (fun () -> ());
    cause = -1;
    cancelled = true;
    in_heap = false;
  }

let create () = { heap = Array.make 64 dummy; len = 0; next_seq = 0; live = 0 }

let before a b = a.us < b.us || (a.us = b.us && a.seq < b.seq)

(* Both sifts move a hole instead of swapping, writing [e] once. *)
let sift_up t i =
  let h = t.heap in
  let e = h.(i) in
  let i = ref i in
  while !i > 0 && before e h.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    h.(!i) <- h.(parent);
    i := parent
  done;
  h.(!i) <- e

let sift_down t i =
  let h = t.heap and len = t.len in
  let e = h.(i) in
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= len then moving := false
    else begin
      let c = if l + 1 < len && before h.(l + 1) h.(l) then l + 1 else l in
      if before h.(c) e then begin
        h.(!i) <- h.(c);
        i := c
      end
      else moving := false
    end
  done;
  h.(!i) <- e

(* Lazy-deletion sweep: filter cancelled entries out in place and
   re-heapify bottom-up. *)
let compact t =
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    let e = t.heap.(i) in
    if e.cancelled then e.in_heap <- false
    else begin
      t.heap.(!j) <- e;
      incr j
    end
  done;
  Array.fill t.heap !j (t.len - !j) dummy;
  t.len <- !j;
  for i = (t.len / 2) - 1 downto 0 do
    sift_down t i
  done

let push t time action cause =
  if t.len >= 64 && t.len - t.live > t.len / 2 then compact t;
  if t.len = Array.length t.heap then begin
    let heap = Array.make (2 * t.len) dummy in
    Array.blit t.heap 0 heap 0 t.len;
    t.heap <- heap
  end;
  let us = Time.to_us time and seq = t.next_seq in
  let e = { time; us; seq; action; cause; cancelled = false; in_heap = true } in
  t.next_seq <- seq + 1;
  t.heap.(t.len) <- e;
  t.len <- t.len + 1;
  t.live <- t.live + 1;
  sift_up t (t.len - 1);
  e

let schedule t ?(cause = -1) time action =
  { q = t; cur = push t time action cause }

let retire t e =
  if not e.cancelled then begin
    e.cancelled <- true;
    (* Entries already popped (or cleared) no longer count. *)
    if e.in_heap then t.live <- t.live - 1
  end

let cancel h = retire h.q h.cur
let is_cancelled h = h.cur.cancelled

let reschedule h at =
  retire h.q h.cur;
  h.cur <- push h.q at h.cur.action h.cur.cause

let remove_top t =
  t.heap.(0).in_heap <- false;
  t.len <- t.len - 1;
  t.heap.(0) <- t.heap.(t.len);
  t.heap.(t.len) <- dummy;
  if t.len > 0 then sift_down t 0

(* Discard cancelled entries sitting at the top; their cancellation
   already adjusted [live]. *)
let rec drop_cancelled t =
  if t.len > 0 && t.heap.(0).cancelled then begin
    remove_top t;
    drop_cancelled t
  end

let size t = t.live
let is_empty t = t.live = 0

let next_time t =
  drop_cancelled t;
  if t.len = 0 then None else Some t.heap.(0).time

let take_top t =
  let e = t.heap.(0) in
  remove_top t;
  t.live <- t.live - 1;
  Some (e.time, e.action, e.cause)

let pop t =
  drop_cancelled t;
  if t.len = 0 then None else take_top t

let pop_until t limit =
  drop_cancelled t;
  if t.len = 0 || Time.(t.heap.(0).time > limit) then None else take_top t

let clear t =
  for i = 0 to t.len - 1 do
    t.heap.(i).in_heap <- false
  done;
  Array.fill t.heap 0 t.len dummy;
  t.len <- 0;
  t.live <- 0
