(* Indexed binary min-heap over (timestamp, sequence number). Each
   entry records its own heap position, so the entry is the handle:
   [cancel] takes it out at once and [reschedule] re-keys it where it
   stands. The heap never holds a cancelled entry, and re-aiming a
   queued timer allocates nothing. *)

type t = { mutable heap : handle array; mutable len : int; mutable next_seq : int }

and handle = {
  q : t;
  mutable us : int;  (* Time.to_us of the due time *)
  mutable seq : int;
  action : unit -> unit;
  cause : int;  (* opaque causal id carried to the pop site; -1 = none *)
  mutable pos : int;  (* index in [q.heap], or a sentinel below *)
}

let idle = -1 (* fired, or never queued *)
let cancelled = -2

(* Fills the slots past [len], so a removed entry is not kept alive. *)
let dummy =
  {
    q = { heap = [||]; len = 0; next_seq = 0 };
    us = 0;
    seq = -1;
    action = ignore;
    cause = -1;
    pos = idle;
  }

let create () = { heap = Array.make 64 dummy; len = 0; next_seq = 0 }

let[@inline] before a b = a.us < b.us || (a.us = b.us && a.seq < b.seq)

let[@inline] place h i e =
  h.(i) <- e;
  e.pos <- i

(* Both sifts move a hole instead of swapping, writing [e] once. *)
let sift_up t i =
  let h = t.heap in
  let e = h.(i) in
  let i = ref i in
  while !i > 0 && before e h.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    place h !i h.(parent);
    i := parent
  done;
  place h !i e

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
        place h !i h.(c);
        i := c
      end
      else moving := false
    end
  done;
  place h !i e

(* Every (re)insertion takes a fresh sequence number, so a re-aimed
   event runs after the events already due at its new time. *)
let set_key t e us =
  e.us <- us;
  e.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1

let push t e =
  if t.len = Array.length t.heap then begin
    let heap = Array.make (2 * t.len) dummy in
    Array.blit t.heap 0 heap 0 t.len;
    t.heap <- heap
  end;
  place t.heap t.len e;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

(* The last entry fills the hole at [i]; it may belong above or below
   that slot. *)
let remove_at t i =
  let h = t.heap in
  h.(i).pos <- idle;
  t.len <- t.len - 1;
  let last = h.(t.len) in
  h.(t.len) <- dummy;
  if i < t.len then begin
    place h i last;
    if i > 0 && before last h.((i - 1) / 2) then sift_up t i else sift_down t i
  end

let schedule t ~cause time action =
  let e = { q = t; us = 0; seq = 0; action; cause; pos = idle } in
  set_key t e (Time.to_us time);
  push t e;
  e

let cancel e =
  if e.pos >= 0 then remove_at e.q e.pos;
  e.pos <- cancelled

let is_cancelled e = e.pos = cancelled

(* A queued entry is re-keyed where it stands. At an equal time the
   fresh seq is larger, so it sifts down. *)
let reschedule e at =
  let t = e.q and old_us = e.us in
  set_key t e (Time.to_us at);
  if e.pos < 0 then push t e
  else if e.us < old_us then sift_up t e.pos
  else sift_down t e.pos

let size t = t.len
let is_empty t = t.len = 0

let next_time t =
  if t.len = 0 then invalid_arg "Event_queue.next_time: empty queue";
  Time.of_us t.heap.(0).us

let pop t =
  if t.len = 0 then invalid_arg "Event_queue.pop: empty queue";
  let e = t.heap.(0) in
  remove_at t 0;
  e

let time e = Time.of_us e.us
let action e = e.action
let cause e = e.cause
