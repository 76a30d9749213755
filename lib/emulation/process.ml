open Horse_engine

type t = {
  proc_name : string;
  sched : Sched.t;
  mutable alive : bool;
  mutable recurrings : Sched.recurring list;
  mutable kill_hooks : (unit -> unit) list;  (* reversed; persistent *)
  mutable restart_hooks : (unit -> unit) list;  (* reversed; persistent *)
}

let alive_gauge sched =
  Horse_telemetry.Registry.gauge
    (Sched.registry sched)
    ~subsystem:"emulation" ~help:"Emulated processes currently alive"
    "alive_processes"

let restarts_counter sched =
  Horse_telemetry.Registry.counter
    (Sched.registry sched)
    ~subsystem:"emulation" ~help:"Emulated process restarts"
    "process_restarts_total"

let create sched ~name =
  Horse_telemetry.Registry.Gauge.add (alive_gauge sched) 1.0;
  {
    proc_name = name;
    sched;
    alive = true;
    recurrings = [];
    kill_hooks = [];
    restart_hooks = [];
  }

let name t = t.proc_name
let scheduler t = t.sched
let is_alive t = t.alive

let after t delay f =
  ignore
    (Sched.schedule_after t.sched delay (fun () -> if t.alive then f ()))

let every t period f =
  let r = Sched.every t.sched period (fun () -> if t.alive then f ()) in
  t.recurrings <- r :: t.recurrings;
  r

let on_kill t f = t.kill_hooks <- f :: t.kill_hooks
let on_restart t f = t.restart_hooks <- f :: t.restart_hooks

(* Hooks persist across kill/restart cycles, so a daemon registered
   once at creation keeps cleaning up and re-arming on every crash. *)
let kill t =
  if t.alive then begin
    t.alive <- false;
    Horse_telemetry.Registry.Gauge.add (alive_gauge t.sched) (-1.0);
    List.iter Sched.cancel_recurring t.recurrings;
    t.recurrings <- [];
    List.iter (fun f -> f ()) (List.rev t.kill_hooks)
  end

let restart t =
  if not t.alive then begin
    t.alive <- true;
    Horse_telemetry.Registry.Gauge.add (alive_gauge t.sched) 1.0;
    Horse_telemetry.Registry.Counter.incr (restarts_counter t.sched);
    List.iter (fun f -> f ()) (List.rev t.restart_hooks)
  end
