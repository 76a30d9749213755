open Horse_engine

type direction = A_to_b | B_to_a

type impairment = {
  loss : float;
  extra_delay : Time.t;
  jitter : Time.t;
  duplicate : float;
}

(* What one endpoint receives: its handler, the backlog queued before
   a handler exists, and its own open flag (each side's teardown runs
   its own close hook). *)
type side = {
  mutable receiver : (Bytes.t -> unit) option;
  mutable backlog : Bytes.t list;  (* reversed *)
  mutable on_close : (unit -> unit) option;
  mutable s_open : bool;
}

type t = {
  sched : Sched.t;
  latency : Time.t;
  a : side;
  b : side;
  mutable messages : int;
  mutable bytes : int;
  mutable impair : (impairment * Rng.t) option;
  mutable observer : (direction -> Bytes.t -> unit) option;
  mutable dropped : int;
  mutable duplicated : int;
}

type endpoint = { chan : t; mine : side; theirs : side; dir_out : direction }

let new_side () =
  { receiver = None; backlog = []; on_close = None; s_open = true }

let create sched ?(latency = Time.of_ms 1) () =
  {
    sched;
    latency;
    a = new_side ();
    b = new_side ();
    messages = 0;
    bytes = 0;
    impair = None;
    observer = None;
    dropped = 0;
    duplicated = 0;
  }

let endpoints t =
  ( { chan = t; mine = t.a; theirs = t.b; dir_out = A_to_b },
    { chan = t; mine = t.b; theirs = t.a; dir_out = B_to_a } )

let peer e =
  {
    chan = e.chan;
    mine = e.theirs;
    theirs = e.mine;
    dir_out = (match e.dir_out with A_to_b -> B_to_a | B_to_a -> A_to_b);
  }

let deliver side msg =
  match side.receiver with
  | Some f -> f msg
  | None -> side.backlog <- msg :: side.backlog

let set_receiver e f =
  e.mine.receiver <- Some f;
  let queued = List.rev e.mine.backlog in
  e.mine.backlog <- [];
  List.iter f queued

let schedule_delivery t target delay msg =
  ignore
    (Sched.schedule_after t.sched delay (fun () ->
         if target.s_open then deliver target msg))

(* Causal kinds; a send's payload is its message length in bytes, a
   batch's its message count. *)
let send_kind = Causal.kind "chan:send" (fun n -> string_of_int n ^ "B")

let batch_kind =
  Causal.kind "chan:send" (fun n -> "batch n=" ^ string_of_int n)

let drop_kind = Causal.kind "chan:drop" (fun _ -> "")
let dup_kind = Causal.kind "chan:dup" (fun _ -> "")

(* Impairments act at send time, on the sender's side of the pipe —
   like a lossy link, not a broken receiver. Per message the draw
   order is fixed (loss, jitter, duplicate, duplicate's jitter) and
   draws are taken whenever the corresponding knob is enabled,
   regardless of earlier outcomes, so a given seed always consumes the
   stream identically for the same message sequence. *)
let impaired_schedule t target msg =
  match t.impair with
  | None -> schedule_delivery t target t.latency msg
  | Some (imp, rng) ->
      let draw_jitter () =
        if Time.(imp.jitter > Time.zero) then
          Time.of_us (Rng.int rng (max 1 (Time.to_us imp.jitter)))
        else Time.zero
      in
      let lost = imp.loss > 0.0 && Rng.float rng 1.0 < imp.loss in
      let base = Time.add t.latency imp.extra_delay in
      let delay = Time.add base (draw_jitter ()) in
      let dup = imp.duplicate > 0.0 && Rng.float rng 1.0 < imp.duplicate in
      let dup_delay = Time.add base (draw_jitter ()) in
      if lost then begin
        t.dropped <- t.dropped + 1;
        (* Leaf node: the message's provenance ends at the lossy link. *)
        ignore (Sched.cause_point t.sched drop_kind 0)
      end
      else begin
        schedule_delivery t target delay msg;
        if dup then begin
          t.duplicated <- t.duplicated + 1;
          (* The copy gets its own node so downstream effects of the
             duplicate are distinguishable from the original's. *)
          Sched.protect_cause t.sched (fun () ->
              ignore (Sched.cause_point t.sched dup_kind 0);
              schedule_delivery t target dup_delay msg)
        end
      end

let count_sent e msg =
  let t = e.chan in
  t.messages <- t.messages + 1;
  t.bytes <- t.bytes + Bytes.length msg;
  match t.observer with Some obs -> obs e.dir_out msg | None -> ()

let send e msg =
  let t = e.chan in
  if e.mine.s_open then begin
    count_sent e msg;
    (* Bracketed so back-to-back sends are causal siblings, not a
       chain. *)
    Sched.protect_cause t.sched (fun () ->
        ignore (Sched.cause_point t.sched send_kind (Bytes.length msg));
        impaired_schedule t e.theirs msg)
  end

let send_many e msgs =
  match msgs with
  | [] -> ()
  | [ msg ] -> send e msg
  | msgs ->
      let t = e.chan in
      if e.mine.s_open then begin
        List.iter (count_sent e) msgs;
        match t.impair with
        | Some _ ->
            (* Per-message fates (drop/duplicate/jitter) break the
               single-event batch; fall back to per-message delivery. *)
            List.iter
              (fun msg ->
                Sched.protect_cause t.sched (fun () ->
                    ignore
                      (Sched.cause_point t.sched send_kind (Bytes.length msg));
                    impaired_schedule t e.theirs msg))
              msgs
        | None ->
            let target = e.theirs in
            (* One scheduler event delivers the whole batch in order. *)
            Sched.protect_cause t.sched (fun () ->
                ignore
                  (Sched.cause_point t.sched batch_kind (List.length msgs));
                ignore
                  (Sched.schedule_after t.sched t.latency (fun () ->
                       if target.s_open then List.iter (deliver target) msgs)))
      end

let set_impairment t ~rng imp =
  if imp.loss < 0.0 || imp.loss > 1.0 then
    invalid_arg "Channel.set_impairment: loss must be in [0, 1]";
  if imp.duplicate < 0.0 || imp.duplicate > 1.0 then
    invalid_arg "Channel.set_impairment: duplicate must be in [0, 1]";
  if Time.(imp.extra_delay < Time.zero) || Time.(imp.jitter < Time.zero) then
    invalid_arg "Channel.set_impairment: delays must be non-negative";
  (* Both directions share the (impairment, rng) pair, so the draw
     stream interleaves across directions in global send order. *)
  t.impair <- Some (imp, rng)

let clear_impairment t = t.impair <- None
let impairment t = Option.map fst t.impair
let impaired_dropped t = t.dropped
let impaired_duplicated t = t.duplicated
let set_observer t obs =
  t.observer <-
    Some
      (match t.observer with
      | None -> obs
      | Some first ->
          fun dir msg ->
            first dir msg;
            obs dir msg)
let set_on_close e f = e.mine.on_close <- Some f

let close_side t side =
  if side.s_open then begin
    side.s_open <- false;
    match side.on_close with
    | Some f -> Sched.protect_cause t.sched f
    | None -> ()
  end

let close t =
  if t.a.s_open || t.b.s_open then begin
    (* Each side's teardown is a causal sibling of the other's — both
       children of whatever closed the channel. *)
    close_side t t.a;
    close_side t t.b
  end

let is_open t = t.a.s_open && t.b.s_open
let messages_sent t = t.messages
let bytes_sent t = t.bytes
