type entry = { at : Time.t; wall : float; label : string; detail : string }

(* Entries live in a FIFO queue. Unbounded by default (the historical
   behaviour); with [~capacity] the queue becomes a ring buffer that
   drops the oldest entry on overflow and counts the drops, so
   FTI-heavy runs can trace forever in constant memory. *)
type counters = {
  c_total : Horse_telemetry.Registry.Counter.t;
  c_dropped : Horse_telemetry.Registry.Counter.t;
}

type t = {
  entries_q : entry Queue.t;
  capacity : int option;
  mutable total : int;
  mutable dropped : int;
  created : float;
  mutable counters : counters option;
}

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Trace.create: capacity must be positive"
  | Some _ | None -> ());
  {
    entries_q = Queue.create ();
    capacity;
    total = 0;
    dropped = 0;
    created = Wall.now ();
    counters = None;
  }

let bind_registry t reg =
  let counter = Horse_telemetry.Registry.counter reg ~subsystem:"trace" in
  let c =
    {
      c_total = counter ~help:"Trace entries ever added" "entries_total";
      c_dropped =
        counter ~help:"Trace entries evicted by the ring buffer"
          "dropped_total";
    }
  in
  (* Catch the registry up with whatever happened before binding. *)
  let lag cnt target =
    let v = Horse_telemetry.Registry.Counter.value cnt in
    if target > v then Horse_telemetry.Registry.Counter.add cnt (target - v)
  in
  lag c.c_total t.total;
  lag c.c_dropped t.dropped;
  t.counters <- Some c

let add t ~at ~label detail =
  (match t.capacity with
  | Some cap when Queue.length t.entries_q >= cap ->
      ignore (Queue.pop t.entries_q);
      t.dropped <- t.dropped + 1;
      (match t.counters with
      | Some c -> Horse_telemetry.Registry.Counter.incr c.c_dropped
      | None -> ())
  | Some _ | None -> ());
  Queue.add
    { at; wall = Wall.now () -. t.created; label; detail }
    t.entries_q;
  t.total <- t.total + 1;
  match t.counters with
  | Some c -> Horse_telemetry.Registry.Counter.incr c.c_total
  | None -> ()

let addf t ~at ~label fmt = Format.kasprintf (fun s -> add t ~at ~label s) fmt

let entries t = List.of_seq (Queue.to_seq t.entries_q)

let by_label t label =
  List.filter (fun e -> String.equal e.label label) (entries t)

let length t = Queue.length t.entries_q
let total_added t = t.total
let dropped t = t.dropped
let capacity t = t.capacity

let clear t =
  Queue.clear t.entries_q;
  t.total <- 0;
  t.dropped <- 0
