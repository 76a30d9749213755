type t = {
  sched : Sched.t;
  holds : unit -> bool;
  on_fire : unit -> unit;
  mutable hooks : (unit -> unit) list;  (* reversed *)
  mutable fired : bool;
  mutable queued : bool;
  mutable cause : Causal.id;  (* ambient at the first registration *)
}

let create ?(on_fire = ignore) sched holds =
  {
    sched;
    holds;
    on_fire;
    hooks = [];
    fired = false;
    queued = false;
    cause = Causal.none;
  }

let check t () =
  t.queued <- false;
  if (not t.fired) && t.holds () then begin
    t.fired <- true;
    t.on_fire ();
    List.iter (fun k -> k ()) (List.rev t.hooks);
    t.hooks <- []
  end

let poke t =
  if (not t.fired) && (not t.queued) && t.hooks <> [] && t.holds () then begin
    t.queued <- true;
    Sched.with_cause t.sched t.cause (fun () -> Sched.defer t.sched (check t))
  end

let on t k =
  if t.fired then k ()
  else begin
    if t.hooks = [] then t.cause <- Sched.current_cause t.sched;
    t.hooks <- k :: t.hooks;
    poke t
  end
