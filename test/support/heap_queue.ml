(* The binary-heap event queue that Event_queue used before the timing
   wheel, kept as the reference implementation for the differential
   suite in test/test_engine.ml. Ordering contract is identical:
   (timestamp, insertion sequence number), lazy cancellation with an
   O(n) compaction sweep, and [reschedule] as cancel + fresh insert
   sharing the original action. *)

open Horse_engine

type entry = {
  time : Time.t;
  seq : int;
  action : unit -> unit;
  mutable cancelled : bool;
  mutable in_heap : bool;
  live : int ref;  (* the owning queue's live counter *)
}

type t = {
  mutable heap : entry array;  (* heap.(0) unused when len = 0 *)
  mutable len : int;
  mutable next_seq : int;
  live : int ref;
}

(* A handle outlives any one incarnation of its event: [reschedule]
   retires the current entry and points the handle at a fresh one. *)
type handle = { q : t; mutable cur : entry }

let dummy =
  {
    time = Time.zero;
    seq = -1;
    action = (fun () -> ());
    cancelled = true;
    in_heap = false;
    live = ref 0;
  }

let create () = { heap = Array.make 64 dummy; len = 0; next_seq = 0; live = ref 0 }

let before a b =
  match Time.compare a.time b.time with
  | 0 -> a.seq < b.seq
  | c -> c < 0

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.len && before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t =
  let heap = Array.make (2 * Array.length t.heap) dummy in
  Array.blit t.heap 0 heap 0 t.len;
  t.heap <- heap

(* Lazy-deletion sweep: once cancelled entries outnumber live ones,
   filter them out in place and re-heapify bottom-up. *)
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

let maybe_compact t =
  if t.len >= 64 && t.len - !(t.live) > t.len / 2 then compact t

let push t time action =
  maybe_compact t;
  if t.len = Array.length t.heap then grow t;
  let e =
    { time; seq = t.next_seq; action; cancelled = false; in_heap = true;
      live = t.live }
  in
  t.next_seq <- t.next_seq + 1;
  t.heap.(t.len) <- e;
  t.len <- t.len + 1;
  incr t.live;
  sift_up t (t.len - 1);
  e

let schedule t time action = { q = t; cur = push t time action }

let retire (e : entry) =
  if not e.cancelled then begin
    e.cancelled <- true;
    (* Entries already popped (or cleared) no longer count. *)
    if e.in_heap then decr e.live
  end

let cancel (h : handle) = retire h.cur
let is_cancelled (h : handle) = h.cur.cancelled

let reschedule (h : handle) at =
  retire h.cur;
  h.cur <- push h.q at h.cur.action

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

let size t = !(t.live)

let is_empty t =
  drop_cancelled t;
  t.len = 0

let next_time t =
  drop_cancelled t;
  if t.len = 0 then None else Some t.heap.(0).time

let pop t =
  drop_cancelled t;
  if t.len = 0 then None
  else begin
    let e = t.heap.(0) in
    remove_top t;
    decr t.live;
    Some (e.time, e.action)
  end

let pop_until t limit =
  drop_cancelled t;
  if t.len = 0 || Time.(t.heap.(0).time > limit) then None
  else begin
    let e = t.heap.(0) in
    remove_top t;
    decr t.live;
    Some (e.time, e.action)
  end

let clear t =
  for i = 0 to t.len - 1 do
    t.heap.(i).in_heap <- false
  done;
  Array.fill t.heap 0 t.len dummy;
  t.len <- 0;
  t.live := 0
