(* Tests for horse_engine: virtual time, RNG, event queue, and the
   hybrid DES/FTI scheduler. *)

open Horse_engine

let check = Alcotest.check
let qtest = Horse_test_support.qtest

(* --- Time ------------------------------------------------------------ *)

let test_time_conversions () =
  check Alcotest.int "of_ms" 1500000 (Time.to_us (Time.of_ms 1500));
  check (Alcotest.float 1e-9) "of_sec" 2.5 (Time.to_sec (Time.of_sec 2.5));
  check Alcotest.int "add" 3000 (Time.to_us (Time.add (Time.of_ms 1) (Time.of_ms 2)));
  check Alcotest.int "sub negative" (-1000)
    (Time.to_us (Time.sub (Time.of_ms 1) (Time.of_ms 2)));
  check Alcotest.bool "compare" true Time.(Time.of_ms 1 < Time.of_ms 2)

let test_time_pp () =
  let s t = Format.asprintf "%a" Time.pp t in
  check Alcotest.string "seconds" "2s" (s (Time.of_sec 2.0));
  check Alcotest.string "millis" "250ms" (s (Time.of_ms 250));
  check Alcotest.string "micros" "10us" (s (Time.of_us 10));
  check Alcotest.string "fractional" "1.500s" (s (Time.of_ms 1500))

(* --- Rng ------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 7 and b = Rng.create 8 in
  let same = ref true in
  for _ = 1 to 16 do
    if Rng.int a 1_000_000 <> Rng.int b 1_000_000 then same := false
  done;
  check Alcotest.bool "different seeds diverge" false !same

let prop_rng_int_bounds =
  qtest "rng: int within bounds"
    QCheck2.Gen.(pair (int_bound 1000) (int_range 1 500))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_rng_permutation_valid =
  qtest "rng: permutation is a bijection"
    QCheck2.Gen.(pair (int_bound 1000) (int_range 1 60))
    (fun (seed, n) ->
      let p = Rng.permutation (Rng.create seed) n in
      let seen = Array.make n false in
      Array.iter (fun v -> seen.(v) <- true) p;
      Array.for_all (fun b -> b) seen)

let prop_rng_derangement_no_fixpoint =
  qtest "rng: derangement has no fixed point"
    QCheck2.Gen.(pair (int_bound 1000) (int_range 2 60))
    (fun (seed, n) ->
      let d = Rng.derangement (Rng.create seed) n in
      let ok = ref true in
      Array.iteri (fun i v -> if i = v then ok := false) d;
      !ok)

let prop_rng_float_bounds =
  qtest "rng: float within bounds" (QCheck2.Gen.int_bound 1000) (fun seed ->
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Rng.float rng 3.5 in
        if v < 0.0 || v >= 3.5 then ok := false
      done;
      !ok)

(* --- Event queue ------------------------------------------------------ *)

(* The queue tests schedule events with no causal id. *)
let schedule q at action = Event_queue.schedule q ~cause:Causal.none at action

(* The earliest event as (time, action, cause); [None] when empty. *)
let pop_opt q =
  if Event_queue.is_empty q then None
  else
    let h = Event_queue.pop q in
    Some (Event_queue.time h, Event_queue.action h, Event_queue.cause h)

let next_time_opt q =
  if Event_queue.is_empty q then None else Some (Event_queue.next_time q)

let drain_all q =
  let rec go () =
    match pop_opt q with
    | Some (_, action, _) ->
        action ();
        go ()
    | None -> ()
  in
  go ()

let test_queue_order () =
  let q = Event_queue.create () in
  let out = ref [] in
  let note label () = out := label :: !out in
  ignore (schedule q (Time.of_ms 5) (note "c"));
  ignore (schedule q (Time.of_ms 1) (note "a"));
  ignore (schedule q (Time.of_ms 3) (note "b"));
  drain_all q;
  check (Alcotest.list Alcotest.string) "time order" [ "a"; "b"; "c" ]
    (List.rev !out)

let test_queue_fifo_same_time () =
  let q = Event_queue.create () in
  let out = ref [] in
  for i = 1 to 50 do
    ignore (schedule q (Time.of_ms 7) (fun () -> out := i :: !out))
  done;
  drain_all q;
  check (Alcotest.list Alcotest.int) "insertion order preserved"
    (List.init 50 (fun i -> i + 1))
    (List.rev !out)

let test_queue_cancel () =
  let q = Event_queue.create () in
  let fired = ref false in
  let h = schedule q (Time.of_ms 1) (fun () -> fired := true) in
  ignore (schedule q (Time.of_ms 2) (fun () -> ()));
  Event_queue.cancel h;
  check Alcotest.bool "cancelled flag" true (Event_queue.is_cancelled h);
  check Alcotest.int "size excludes cancelled" 1 (Event_queue.size q);
  drain_all q;
  check Alcotest.bool "cancelled never ran" false !fired

let prop_queue_sorted =
  qtest "event queue: pops in non-decreasing time order"
    QCheck2.Gen.(list_size (int_range 0 200) (int_bound 10_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter
        (fun us -> ignore (schedule q (Time.of_us us) (fun () -> ())))
        times;
      let rec drain last =
        match pop_opt q with
        | None -> true
        | Some (at, _, _) -> Time.(at >= last) && drain at
      in
      drain Time.zero)

let test_queue_size_after_cancel () =
  let q = Event_queue.create () in
  let handles =
    List.init 10 (fun i ->
        schedule q (Time.of_ms i) (fun () -> ()))
  in
  check Alcotest.int "all live" 10 (Event_queue.size q);
  List.iteri (fun i h -> if i mod 2 = 0 then Event_queue.cancel h) handles;
  check Alcotest.int "size drops with each cancel" 5 (Event_queue.size q);
  (* Cancelling twice must not double-decrement. *)
  Event_queue.cancel (List.hd handles);
  check Alcotest.int "idempotent cancel" 5 (Event_queue.size q);
  (* Cancelling an event that has already been popped must not touch
     the live count of the remaining heap (the fluid engine cancels
     completion timers that may have fired). *)
  let h_popped = List.nth handles 1 in
  (match pop_opt q with
  | Some (at, _, _) ->
      check Alcotest.int "popped earliest live" 1 (Time.to_us at / 1000)
  | None -> Alcotest.fail "expected a live event");
  check Alcotest.int "pop decrements" 4 (Event_queue.size q);
  Event_queue.cancel h_popped;
  check Alcotest.int "cancel after pop is a no-op on size" 4 (Event_queue.size q);
  drain_all q;
  check Alcotest.int "drained" 0 (Event_queue.size q)

let test_queue_mass_cancel_preserves_order () =
  (* Cancel three events in four, each leaving a hole the heap must
     refill, then check ordering and FIFO-at-same-time survive. *)
  let q = Event_queue.create () in
  let doomed = ref [] in
  for i = 0 to 499 do
    let h =
      schedule q (Time.of_us (i mod 50)) (fun () -> ())
    in
    if i mod 4 <> 0 then doomed := h :: !doomed
  done;
  List.iter Event_queue.cancel !doomed;
  check Alcotest.int "live after mass cancel" 125 (Event_queue.size q);
  let out = ref [] in
  for i = 0 to 9 do
    ignore (schedule q (Time.of_us 25) (fun () -> out := i :: !out))
  done;
  check Alcotest.int "live after more schedules" 135 (Event_queue.size q);
  let rec drain last n =
    match pop_opt q with
    | None -> n
    | Some (at, action, _) ->
        check Alcotest.bool "non-decreasing after mass cancel" true
          Time.(at >= last);
        action ();
        drain at (n + 1)
  in
  let popped = drain Time.zero 0 in
  check Alcotest.int "every live event pops exactly once" 135 popped;
  check (Alcotest.list Alcotest.int) "fifo among equals survives mass cancel"
    (List.init 10 (fun i -> i))
    (List.rev !out)

let test_queue_reschedule () =
  let q = Event_queue.create () in
  let out = ref [] in
  let ev i at = schedule q (Time.of_ms at) (fun () -> out := i :: !out) in
  let a = ev 1 10 and _b = ev 2 20 and c = ev 3 30 in
  (* Later, earlier, and re-arming an already-popped event. *)
  Event_queue.reschedule a (Time.of_ms 25);
  Event_queue.reschedule c (Time.of_ms 5);
  check Alcotest.int "reschedule keeps size" 3 (Event_queue.size q);
  (match pop_opt q with
  | Some (at, action, _) ->
      check Alcotest.int "earliest is re-aimed c" 5 (Time.to_us at / 1000);
      action ()
  | None -> Alcotest.fail "expected an event");
  Event_queue.reschedule c (Time.of_ms 22);
  check Alcotest.int "fired event re-armed" 3 (Event_queue.size q);
  Event_queue.cancel a;
  Event_queue.reschedule a (Time.of_ms 21);
  drain_all q;
  check (Alcotest.list Alcotest.int) "order follows the re-aimed times"
    [ 3; 2; 1; 3 ] (List.rev !out)

(* The ordering contract as a list model: the live entries, oldest
   first, so a stable sort by time yields the (time, seq) pop order. *)
type model_handle = {
  qh : Event_queue.handle;
  id : int;
  mutable mseq : int;  (* sequence number of the current incarnation *)
  mutable mcancelled : bool;
}

let prop_queue_matches_model =
  qtest ~count:300 "event queue: matches sorted-list model"
    QCheck2.Gen.(
      list_size (int_range 0 150)
        (triple (int_bound 9) (int_bound 3) (int_bound 0x3FFFFFFF)))
    (fun ops ->
      let q = Event_queue.create () in
      let model = ref [] (* (us, seq, id), oldest first *) in
      let next_seq = ref 0 and fired = ref (-1) in
      let handles = ref [] and n_handles = ref 0 in
      let now = ref 0 in
      let ok = ref true in
      (* Deadlines spread over spans from milliseconds to ~18 minutes
         past the popped-up-to time. *)
      let time_of band off =
        let span =
          match band with
          | 0 -> 1 lsl 12
          | 1 -> 1 lsl 18
          | 2 -> 1 lsl 26
          | _ -> 1 lsl 30
        in
        !now + (off mod span)
      in
      let append mh us =
        mh.mseq <- !next_seq;
        incr next_seq;
        model := !model @ [ (us, mh.mseq, mh.id) ]
      in
      let drop seq = model := List.filter (fun (_, s, _) -> s <> seq) !model in
      let add us =
        let id = !n_handles in
        let qh =
          schedule q (Time.of_us us) (fun () -> fired := id)
        in
        let mh = { qh; id; mseq = 0; mcancelled = false } in
        append mh us;
        handles := mh :: !handles;
        incr n_handles
      in
      let pick k = List.nth !handles (k mod !n_handles) in
      let model_head () =
        match
          List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b) !model
        with
        | [] -> None
        | head :: _ -> Some head
      in
      let pop_both () =
        match (pop_opt q, model_head ()) with
        | Some (at, action, _), Some (us, seq, id) ->
            action ();
            if Time.to_us at <> us || !fired <> id then ok := false;
            drop seq;
            now := max !now us
        | None, None -> ()
        | Some _, None | None, Some _ -> ok := false
      in
      List.iter
        (fun (op, band, off) ->
          (match op with
          | 0 | 1 | 2 | 3 -> add (time_of band off)
          | 4 ->
              (* In the past: the queue is time-agnostic. *)
              add (max 0 (!now - (off mod 4096)))
          | 5 ->
              if !n_handles > 0 then begin
                let mh = pick off in
                Event_queue.cancel mh.qh;
                drop mh.mseq;
                mh.mcancelled <- true
              end
          | 6 ->
              if !n_handles > 0 then begin
                let mh = pick off in
                let us = time_of band (off / 7) in
                Event_queue.reschedule mh.qh (Time.of_us us);
                drop mh.mseq;
                mh.mcancelled <- false;
                append mh us
              end
          | _ -> pop_both ());
          if Event_queue.size q <> List.length !model then ok := false;
          let next = Option.map (fun (us, _, _) -> us) (model_head ()) in
          if Option.map Time.to_us (next_time_opt q) <> next then
            ok := false;
          List.iter
            (fun mh ->
              if Event_queue.is_cancelled mh.qh <> mh.mcancelled then
                ok := false)
            !handles)
        ops;
      (* Drain to the end. Fuel bounds the loop so a pop-loses-events
         bug fails instead of hanging. *)
      let rec drain fuel =
        if fuel = 0 then ok := false
        else if not (Event_queue.is_empty q && !model = []) then begin
          pop_both ();
          drain (fuel - 1)
        end
      in
      drain 1000;
      !ok && Event_queue.is_empty q && next_time_opt q = None)

let test_queue_reaim_churn () =
  (* Hold-timer churn: every handle is re-aimed many times in place,
     each round in a fresh order. [size] must stay exact throughout,
     and the drain must follow each handle's final (time, seq): ties
     go to the handle re-aimed last. *)
  let n = 100 and rounds = 1_000 in
  let q = Event_queue.create () in
  let rng = Rng.create 42 in
  let fired = ref (-1) in
  let at = Array.init n (fun _ -> Rng.int rng 50) in
  let hs =
    Array.init n (fun i ->
        schedule q (Time.of_ms at.(i)) (fun () -> fired := i))
  in
  let last_aim = Array.make n 0 and aims = ref 0 in
  for _ = 1 to rounds do
    Array.iter
      (fun i ->
        at.(i) <- Rng.int rng 50;
        Event_queue.reschedule hs.(i) (Time.of_ms at.(i));
        incr aims;
        last_aim.(i) <- !aims;
        if Event_queue.size q <> n then
          Alcotest.failf "size %d after a re-aim, expected %d"
            (Event_queue.size q) n)
      (Rng.permutation rng n)
  done;
  let order =
    List.sort
      (fun i j -> compare (at.(i), last_aim.(i)) (at.(j), last_aim.(j)))
      (List.init n (fun i -> i))
  in
  List.iteri
    (fun k i ->
      (match pop_opt q with
      | Some (t, action, _) ->
          action ();
          check Alcotest.int "pop time" at.(i) (Time.to_us t / 1000);
          check Alcotest.int "pop order" i !fired
      | None -> Alcotest.fail "queue drained early");
      check Alcotest.int "size while draining" (n - k - 1) (Event_queue.size q))
    order;
  check Alcotest.bool "drained" true (pop_opt q = None)

(* Work-count gates: minor words counted by the runtime, never wall
   time. *)
let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_queue_reaim_allocates_nothing () =
  let q = Event_queue.create () in
  let hs =
    Array.init 1000 (fun i -> schedule q (Time.of_us i) ignore)
  in
  let words =
    minor_words_of (fun () ->
        for k = 1 to 100_000 do
          Event_queue.reschedule hs.(k mod 1000) (Time.of_us (k * 7919 mod 50_000))
        done)
  in
  check (Alcotest.float 0.0) "minor words for 100k re-aims" 0.0 words;
  check Alcotest.int "no entry added" 1000 (Event_queue.size q)

let test_queue_mass_cancel_leaves_live () =
  let q = Event_queue.create () in
  let hs =
    Array.init 1000 (fun i ->
        schedule q (Time.of_us (i * 37 mod 1000)) ignore)
  in
  Array.iteri (fun i h -> if i mod 10 <> 0 then Event_queue.cancel h) hs;
  check Alcotest.int "size equals the live entries" 100 (Event_queue.size q);
  let pops = ref 0 in
  let words =
    minor_words_of (fun () ->
        while not (Event_queue.is_empty q) do
          Event_queue.action (Event_queue.pop q) ();
          incr pops
        done)
  in
  check Alcotest.int "one pop per live entry" 100 !pops;
  check (Alcotest.float 0.0) "minor words for the drain" 0.0 words

(* --- Hybrid scheduler -------------------------------------------------- *)

let test_des_jumps () =
  let sched = Sched.create () in
  let seen = ref [] in
  ignore
    (Sched.schedule_at sched (Time.of_sec 100.0) (fun () ->
         seen := Time.to_sec (Sched.now sched) :: !seen));
  ignore
    (Sched.schedule_at sched (Time.of_sec 900.0) (fun () ->
         seen := Time.to_sec (Sched.now sched) :: !seen));
  let stats = Sched.run ~until:(Time.of_sec 1000.0) sched in
  check (Alcotest.list (Alcotest.float 1e-6)) "clock jumped to events"
    [ 100.0; 900.0 ] (List.rev !seen);
  check Alcotest.int "two events" 2 stats.Sched.events_executed;
  check Alcotest.int "no FTI at all" 0 stats.Sched.fti_increments;
  check (Alcotest.float 1e-6) "finished exactly at until" 1000.0
    (Time.to_sec stats.Sched.end_time)

(* A zero increment (or one that truncates to 0 us) would divide by
   zero in the increment accounting; the scheduler refuses it up front,
   as it does negative durations. *)
let test_config_rejected () =
  let rejects what msg config =
    Alcotest.check_raises what (Invalid_argument msg) (fun () ->
        ignore (Sched.create ~config ()))
  in
  let d = Sched.default_config in
  let increment = "Sched.create: fti_increment must be at least 1 us" in
  rejects "zero increment" increment { d with Sched.fti_increment = Time.zero };
  rejects "sub-microsecond increment" increment
    { d with Sched.fti_increment = Time.of_sec 1e-7 };
  rejects "negative increment" increment
    { d with Sched.fti_increment = Time.of_us (-1) };
  rejects "negative quiet timeout"
    "Sched.create: quiet_timeout must be non-negative"
    { d with Sched.quiet_timeout = Time.of_us (-1) };
  rejects "negative pacing" "Sched.create: fti_pacing must be non-negative"
    { d with Sched.fti_pacing = -1.0 };
  rejects "negative watchdog" "Sched.create: max_wall_s must be non-negative"
    { d with Sched.max_wall_s = -1.0 };
  let one_us =
    Sched.create ~config:{ d with Sched.fti_increment = Time.of_us 1 } ()
  in
  Sched.control_activity one_us;
  let stats = Sched.run ~until:(Time.of_ms 2) one_us in
  check Alcotest.int "1 us increments step" 2000 stats.Sched.fti_increments

let test_fti_transition_and_return () =
  let config =
    {
      Sched.default_config with
      Sched.fti_increment = Time.of_ms 1;
      quiet_timeout = Time.of_ms 100;
    }
  in
  let sched = Sched.create ~config () in
  ignore
    (Sched.schedule_at sched (Time.of_ms 50) (fun () ->
         Sched.control_activity ~reason:"test" sched));
  let stats = Sched.run ~until:(Time.of_sec 1.0) sched in
  match stats.Sched.transitions with
  | [ to_fti; to_des ] ->
      check Alcotest.string "first transition" "FTI"
        (Sched.mode_to_string to_fti.Sched.to_mode);
      check (Alcotest.float 1e-6) "enters FTI at the event" 0.05
        (Time.to_sec to_fti.Sched.at);
      check Alcotest.string "second transition" "DES"
        (Sched.mode_to_string to_des.Sched.to_mode);
      check (Alcotest.float 2e-3) "returns after quiet timeout" 0.15
        (Time.to_sec to_des.Sched.at);
      check Alcotest.bool "increment count" true
        (stats.Sched.fti_increments >= 99 && stats.Sched.fti_increments <= 102);
      check (Alcotest.float 5e-3) "virtual time in FTI" 0.1
        (Time.to_sec stats.Sched.virtual_in_fti)
  | transitions ->
      Alcotest.failf "expected 2 transitions, got %d" (List.length transitions)

let test_activity_refreshes_quiet_timer () =
  let config =
    { Sched.default_config with Sched.quiet_timeout = Time.of_ms 50 }
  in
  let sched = Sched.create ~config () in
  List.iter
    (fun ms ->
      ignore
        (Sched.schedule_at sched (Time.of_ms ms) (fun () ->
             Sched.control_activity sched)))
    [ 10; 40; 70; 100 ];
  let stats = Sched.run ~until:(Time.of_ms 300) sched in
  check Alcotest.int "exactly one FTI entry and one exit" 2
    (List.length stats.Sched.transitions);
  match List.rev stats.Sched.transitions with
  | exit_t :: _ ->
      check (Alcotest.float 3e-3) "exit 50ms after last activity" 0.15
        (Time.to_sec exit_t.Sched.at)
  | [] -> Alcotest.fail "no transitions"

let test_events_during_fti_execute () =
  let config =
    { Sched.default_config with Sched.quiet_timeout = Time.of_ms 30 }
  in
  let sched = Sched.create ~config () in
  let fired_at = ref [] in
  ignore
    (Sched.schedule_at sched (Time.of_ms 1) (fun () ->
         Sched.control_activity sched;
         ignore
           (Sched.schedule_after sched (Time.of_ms 5) (fun () ->
                fired_at := Time.to_ms (Sched.now sched) :: !fired_at))));
  ignore (Sched.run ~until:(Time.of_ms 200) sched);
  match !fired_at with
  | [ at ] -> check Alcotest.bool "fired near 6ms" true (at >= 6.0 && at < 8.0)
  | other -> Alcotest.failf "expected one firing, got %d" (List.length other)

let test_recurring_and_cancel () =
  let sched = Sched.create () in
  let count = ref 0 in
  let r = Sched.every sched (Time.of_ms 10) (fun () -> incr count) in
  ignore
    (Sched.schedule_at sched (Time.of_ms 55) (fun () -> Sched.cancel_recurring r));
  ignore (Sched.run ~until:(Time.of_ms 200) sched);
  check Alcotest.int "fired at 10..50" 5 !count

let test_recurring_cadence_no_drift () =
  let sched = Sched.create () in
  let times = ref [] in
  let _r =
    Sched.every sched (Time.of_ms 100) (fun () ->
        times := Time.to_ms (Sched.now sched) :: !times)
  in
  ignore (Sched.run ~until:(Time.of_ms 1000) sched);
  check
    (Alcotest.list (Alcotest.float 1e-6))
    "fixed cadence"
    [ 100.; 200.; 300.; 400.; 500.; 600.; 700.; 800.; 900.; 1000. ]
    (List.rev !times)

let test_schedule_in_past_clamps () =
  let sched = Sched.create () in
  let at = ref (-1.0) in
  ignore
    (Sched.schedule_at sched (Time.of_ms 100) (fun () ->
         ignore
           (Sched.schedule_at sched (Time.of_ms 1) (fun () ->
                at := Time.to_ms (Sched.now sched)))));
  ignore (Sched.run ~until:(Time.of_ms 200) sched);
  check (Alcotest.float 1e-6) "clamped to now" 100.0 !at

let test_defer_runs_before_clock_advances () =
  let sched = Sched.create () in
  let trace = ref [] in
  let note label () =
    trace := (label, Time.to_ms (Sched.now sched)) :: !trace
  in
  ignore
    (Sched.schedule_at sched (Time.of_ms 1) (fun () ->
         Sched.defer sched (note "defer");
         note "first@1" ()));
  ignore (Sched.schedule_at sched (Time.of_ms 1) (note "second@1"));
  ignore (Sched.schedule_at sched (Time.of_ms 5) (note "later@5"));
  ignore (Sched.run sched);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.float 1e-9)))
    "deferred work drains after the instant's events, before time moves"
    [ ("first@1", 1.0); ("second@1", 1.0); ("defer", 1.0); ("later@5", 5.0) ]
    (List.rev !trace)

let test_defer_chains_drain_in_instant () =
  (* A deferred callback may defer again; the whole chain must drain
     at the instant that started it. *)
  let sched = Sched.create () in
  let ran = ref 0 in
  ignore
    (Sched.schedule_at sched (Time.of_ms 2) (fun () ->
         let rec go n =
           Sched.defer sched (fun () ->
               check (Alcotest.float 1e-9) "still at 2ms" 2.0
                 (Time.to_ms (Sched.now sched));
               incr ran;
               if n > 0 then go (n - 1))
         in
         go 3));
  ignore (Sched.schedule_at sched (Time.of_ms 9) (fun () -> ()));
  ignore (Sched.run sched);
  check Alcotest.int "all chained callbacks ran" 4 !ran

let test_latch_fires_once_at_end_of_instant () =
  (* The condition flips true at 1 ms and back within the instant (no
     fire), then true at 3 ms, where the latch fires once, after the
     instant's last event; a late registration runs at once. *)
  let sched = Sched.create () in
  let level = ref 0 in
  let latch = Latch.create sched (fun () -> !level = 0) in
  let trace = ref [] in
  let note label () = trace := (label, Time.to_ms (Sched.now sched)) :: !trace in
  let set v () =
    level := v;
    Latch.poke latch
  in
  level := 1;
  Latch.on latch (note "first");
  Latch.on latch (note "second");
  List.iter
    (fun (ms, f) -> ignore (Sched.schedule_at sched (Time.of_ms ms) f))
    [
      (1, set 0); (1, set 1); (3, set 0); (3, note "event@3"); (4, set 1); (5, set 0);
    ];
  ignore (Sched.run sched);
  Latch.on latch (note "late");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.float 1e-9)))
    "fires once, at the end of the first instant that holds"
    [ ("event@3", 3.0); ("first", 3.0); ("second", 3.0); ("late", 5.0) ]
    (List.rev !trace)

let test_start_in_fti () =
  (* Control activity before the run starts it in FTI. *)
  let config =
    { Sched.default_config with Sched.quiet_timeout = Time.of_ms 10 }
  in
  let sched = Sched.create ~config () in
  Sched.control_activity sched;
  let stats = Sched.run ~until:(Time.of_ms 100) sched in
  check
    (Alcotest.list Alcotest.string)
    "into FTI at t=0, back to DES after the quiet timeout"
    [ "0s DES -> FTI"; "10ms FTI -> DES" ]
    (List.map
       (fun (tr : Sched.transition) ->
         Format.asprintf "%a %a -> %a" Time.pp tr.at Sched.pp_mode
           tr.from_mode Sched.pp_mode tr.to_mode)
       stats.Sched.transitions);
  check Alcotest.bool "some increments" true (stats.Sched.fti_increments >= 10)

(* Pacing only sleeps: it must change no event, transition or count.
   [paced_differential ()] runs the same events and control activity
   three times: in DES (no control activity), in unpaced FTI, and in
   paced FTI. Pacing is huge so the sleeps are negligible. *)
let paced_due_us = [ 5_000; 35_500; 120_000; 210_250; 400_000 ]

let paced_differential () =
  let run ~pacing ~control =
    let config =
      {
        Sched.default_config with
        Sched.quiet_timeout = Time.of_ms 50;
        fti_increment = Time.of_ms 1;
        fti_pacing = pacing;
      }
    in
    let sched = Sched.create ~config () in
    let fired = ref [] in
    List.iter
      (fun us ->
        ignore
          (Sched.schedule_at sched (Time.of_us us) (fun () ->
               fired := Time.to_us (Sched.now sched) :: !fired)))
      paced_due_us;
    if control then begin
      Sched.control_activity sched;
      List.iter
        (fun ms ->
          ignore
            (Sched.schedule_at sched (Time.of_ms ms) (fun () ->
                 Sched.control_activity ~reason:"probe" sched)))
        [ 20; 200 ]
    end;
    let stats = Sched.run ~until:(Time.of_ms 500) sched in
    (stats, List.rev !fired)
  in
  ( run ~pacing:0.0 ~control:false,
    run ~pacing:0.0 ~control:true,
    run ~pacing:1e6 ~control:true )

let test_fti_work_exceeds_des () =
  (* The paper's core claim in miniature: the same run costs FTI one
     increment per millisecond of control activity and DES none, paced
     or not. *)
  let (des, _), (fast, _), (paced, _) = paced_differential () in
  check Alcotest.int "DES: no increments" 0 des.Sched.fti_increments;
  (* FTI from 0 to 70 ms and from 200 to 250 ms. *)
  check Alcotest.int "FTI: one increment per millisecond" 120
    fast.Sched.fti_increments;
  check Alcotest.int "same increments" fast.Sched.fti_increments
    paced.Sched.fti_increments;
  check Alcotest.int "paced and unpaced report the same skipped count"
    fast.Sched.fti_increments_skipped paced.Sched.fti_increments_skipped;
  check Alcotest.bool "unpaced: idle increments skipped" true
    (fast.Sched.fti_increments_skipped > 0)

let test_fast_forward_respects_events_and_quiet_timeout () =
  (* Events fire and modes change at the same instants whether or not
     FTI is paced. *)
  let _, (fast, fast_fired), (paced, paced_fired) = paced_differential () in
  let transitions (s : Sched.stats) =
    List.map
      (fun (tr : Sched.transition) ->
        Printf.sprintf "%dus %s -> %s (%s)" (Time.to_us tr.at)
          (Sched.mode_to_string tr.from_mode)
          (Sched.mode_to_string tr.to_mode)
          tr.reason)
      s.Sched.transitions
  in
  check (Alcotest.list Alcotest.int) "event fired on time" paced_due_us
    fast_fired;
  check
    (Alcotest.list Alcotest.string)
    "same transitions" (transitions fast) (transitions paced);
  check (Alcotest.list Alcotest.int) "same fire times" fast_fired paced_fired

let test_fast_forward_skips_idle_fti () =
  (* A quiet virtual hour in FTI: the experiment still observes one
     increment per millisecond, all counted in closed form, and all but
     the first and last are skipped. *)
  let config =
    {
      Sched.default_config with
      Sched.quiet_timeout = Time.of_sec 7200.0;
      fti_increment = Time.of_ms 1;
    }
  in
  let sched = Sched.create ~config () in
  Sched.control_activity sched;
  let stats = Sched.run ~until:(Time.of_sec 3600.0) sched in
  check Alcotest.int "FTI: one increment per millisecond" 3_600_000
    stats.Sched.fti_increments;
  check Alcotest.int "every increment but the first and last skipped"
    3_599_998 stats.Sched.fti_increments_skipped;
  check (Alcotest.float 1e-6) "virtual hour still elapses" 3600.0
    (Time.to_sec stats.Sched.end_time)

(* Deferred end-of-instant work may switch to FTI too: the episode
   starts at that instant, not at the next event (here 0.4 ms later),
   so its first increment and its virtual time count as FTI. *)
let test_deferred_switch_anchors_grid () =
  let config =
    {
      Sched.default_config with
      Sched.fti_increment = Time.of_ms 1;
      quiet_timeout = Time.of_us 2_300;
    }
  in
  let sched = Sched.create ~config () in
  ignore
    (Sched.schedule_at sched (Time.of_ms 5) (fun () ->
         Sched.defer sched (fun () -> Sched.control_activity sched)));
  ignore (Sched.schedule_at sched (Time.of_us 5_400) (fun () -> ()));
  let stats = Sched.run ~until:(Time.of_ms 20) sched in
  check
    (Alcotest.list Alcotest.int)
    "into FTI at 5 ms, out at the grid's first boundary past 7.3 ms"
    [ 5_000; 8_000 ]
    (List.map (fun (tr : Sched.transition) -> Time.to_us tr.at)
       stats.Sched.transitions);
  check Alcotest.int "increments from 5 ms" 3 stats.Sched.fti_increments;
  check Alcotest.int "virtual time in FTI" 3_000
    (Time.to_us stats.Sched.virtual_in_fti);
  check Alcotest.int "virtual time in DES" 17_000
    (Time.to_us stats.Sched.virtual_in_des)

(* Random static schedules against the literal stepping model: the
   closed-form accounting must report the transitions, counts,
   residency and fire times of a loop that steps every increment. *)
let prop_fti_matches_stepping_model =
  let module Ref = Horse_test_support.Fti_reference in
  let gen =
    QCheck2.Gen.(
      let* increment = int_range 1 7 in
      let* quiet = int_bound (20 * increment) in
      let* start_in_fti = bool in
      let* events =
        list_size (int_bound 25)
          (pair (int_bound 200)
             (oneofl [ Ref.Plain; Ref.Activity; Ref.Deferred_activity ]))
      in
      let* horizons = list_size (int_range 1 3) (int_range 0 300) in
      let horizons = List.sort compare horizons in
      return (increment, quiet, start_in_fti, events, horizons))
  in
  qtest ~count:500 "sched: FTI accounting matches the stepping model" gen
    (fun (increment, quiet, start_in_fti, events, horizons) ->
      let config =
        {
          Sched.default_config with
          Sched.fti_increment = Time.of_us increment;
          quiet_timeout = Time.of_us quiet;
        }
      in
      let sched = Sched.create ~config () in
      let fired = ref [] in
      let activity () = Sched.control_activity ~reason:"activity" sched in
      List.iteri
        (fun i (us, action) ->
          ignore
            (Sched.schedule_at sched (Time.of_us us) (fun () ->
                 fired := (i, Time.to_us (Sched.now sched)) :: !fired;
                 match action with
                 | Ref.Plain -> ()
                 | Ref.Activity -> activity ()
                 | Ref.Deferred_activity -> Sched.defer sched activity)))
        events;
      if start_in_fti then activity ();
      let stats =
        List.fold_left
          (fun _ u -> Sched.run ~until:(Time.of_us u) sched)
          (Sched.snapshot sched) horizons
      in
      let want = Ref.run ~increment ~quiet ~start_in_fti events horizons in
      let transitions =
        List.map
          (fun (tr : Sched.transition) ->
            (Time.to_us tr.at, tr.to_mode = Sched.Fti, tr.reason))
          stats.Sched.transitions
      in
      (* FTI residency read off the timeline alone. *)
      let rec fti_spans = function
        | (x, true, _) :: (y, false, _) :: rest -> (y - x) + fti_spans rest
        | [ (x, true, _) ] -> Time.to_us stats.Sched.end_time - x
        | _ :: rest -> fti_spans rest
        | [] -> 0
      in
      transitions = want.Ref.transitions
      && List.for_all2
           (fun (_, to_fti, _) (tr : Sched.transition) ->
             to_fti <> (tr.from_mode = Sched.Fti))
           transitions stats.Sched.transitions
      && stats.Sched.fti_increments = want.Ref.increments
      && stats.Sched.fti_increments_skipped = want.Ref.skipped
      && Time.to_us stats.Sched.virtual_in_fti = want.Ref.virtual_in_fti
      && Time.to_us stats.Sched.virtual_in_des = want.Ref.virtual_in_des
      && Time.to_us stats.Sched.virtual_in_fti = fti_spans transitions
      && List.rev !fired = want.Ref.fired)

let test_rerun_continues () =
  let sched = Sched.create () in
  ignore (Sched.schedule_at sched (Time.of_ms 10) (fun () -> ()));
  let s1 = Sched.run ~until:(Time.of_ms 100) sched in
  ignore (Sched.schedule_at sched (Time.of_ms 150) (fun () -> ()));
  let s2 = Sched.run ~until:(Time.of_ms 200) sched in
  check (Alcotest.float 1e-6) "first run ends at horizon" 0.1
    (Time.to_sec s1.Sched.end_time);
  check (Alcotest.float 1e-6) "second run continues" 0.2
    (Time.to_sec s2.Sched.end_time);
  check Alcotest.int "cumulative events" 2 s2.Sched.events_executed

let prop_sched_matches_reference =
  (* Random one-shot schedules: the DES engine must execute exactly
     the reference order (sort by time, ties by insertion). *)
  qtest ~count:100 "sched: DES execution order matches reference simulator"
    QCheck2.Gen.(list_size (int_range 0 60) (int_bound 5_000))
    (fun times_us ->
      let sched = Sched.create () in
      let order = ref [] in
      List.iteri
        (fun i us ->
          ignore
            (Sched.schedule_at sched (Time.of_us us) (fun () ->
                 order := (i, Time.to_us (Sched.now sched)) :: !order)))
        times_us;
      ignore (Sched.run sched);
      let got = List.rev !order in
      let want =
        List.mapi (fun i us -> (i, us)) times_us
        |> List.stable_sort (fun (_, a) (_, b) -> Int.compare a b)
      in
      got = want)

let test_sched_metrics_agree_with_stats () =
  (* Sched.stats is a view over the telemetry registry: the exported
     gauges must agree with the stats record for the same run. *)
  let module Registry = Horse_telemetry.Registry in
  let config =
    { Sched.default_config with Sched.quiet_timeout = Time.of_ms 50 }
  in
  let sched = Sched.create ~config () in
  ignore
    (Sched.schedule_at sched (Time.of_ms 10) (fun () ->
         Sched.control_activity ~reason:"test" sched));
  let stats = Sched.run ~until:(Time.of_sec 2.0) sched in
  let reg = Sched.registry sched in
  let gauge name =
    match Registry.find_gauge reg ("horse_sched_" ^ name) with
    | Some g -> Registry.Gauge.value g
    | None -> Alcotest.failf "gauge horse_sched_%s not registered" name
  in
  let counter name =
    match Registry.find_counter reg ("horse_sched_" ^ name) with
    | Some c -> Registry.Counter.value c
    | None -> Alcotest.failf "counter horse_sched_%s not registered" name
  in
  check (Alcotest.float 1e-9) "virtual FTI residency"
    (Time.to_sec stats.Sched.virtual_in_fti)
    (gauge "virtual_in_fti_seconds");
  check (Alcotest.float 1e-9) "virtual DES residency"
    (Time.to_sec stats.Sched.virtual_in_des)
    (gauge "virtual_in_des_seconds");
  check (Alcotest.float 1e-9) "wall FTI residency" stats.Sched.wall_in_fti
    (gauge "wall_in_fti_seconds");
  check (Alcotest.float 1e-9) "wall DES residency" stats.Sched.wall_in_des
    (gauge "wall_in_des_seconds");
  check (Alcotest.float 1e-9) "end time"
    (Time.to_sec stats.Sched.end_time)
    (gauge "end_time_seconds");
  check Alcotest.int "events" stats.Sched.events_executed (counter "events_total");
  check Alcotest.int "fti increments" stats.Sched.fti_increments
    (counter "fti_increments_total");
  check Alcotest.int "transitions"
    (List.length stats.Sched.transitions)
    (counter "transitions_total");
  (* snapshot mid-lifecycle equals the returned stats after the run *)
  let snap = Sched.snapshot sched in
  check Alcotest.int "snapshot events" stats.Sched.events_executed
    snap.Sched.events_executed

(* Two schedulers may share one registry: each adds only its own
   growth to the shared causal counters, however often it snapshots. *)
let test_shared_registry_causal_counts () =
  let module Registry = Horse_telemetry.Registry in
  let reg = Registry.create () in
  let kind = Causal.kind "test:shared" (fun _ -> "") in
  let points sched n =
    ignore
      (Sched.schedule_at sched (Time.of_ms 1) (fun () ->
           for i = 1 to n do
             ignore (Sched.cause_point sched kind i)
           done))
  in
  let a = Sched.create ~registry:reg () in
  let b = Sched.create ~registry:reg () in
  points a 5;
  points b 1;
  ignore (Sched.run ~until:(Time.of_ms 2) a);
  ignore (Sched.run ~until:(Time.of_ms 2) b);
  ignore (Sched.snapshot a);
  ignore (Sched.snapshot b);
  match Registry.find_counter reg "horse_causal_nodes_total" with
  | Some c -> check Alcotest.int "nodes of both runs" 6 (Registry.Counter.value c)
  | None -> Alcotest.fail "counter horse_causal_nodes_total not registered"

(* Budget for one schedule -> pop -> fire cycle through [Sched.run]:
   the 7-word queue entry (the cause rides in it unboxed; 7.01 words
   measured), and one word of slack that covers the run's fixed cost
   (stats, snapshot) spread over the cycles. The run loop itself
   allocates nothing per event, and a recurring timer re-aims its one
   entry in place. *)
let words_per_cycle = 8.0

let test_sched_cycle_word_budget () =
  let n = 10_000 in
  let sched = Sched.create () in
  let fired = ref 0 in
  let rec tick () =
    incr fired;
    if !fired < n then ignore (Sched.schedule_after sched (Time.of_us 1) tick)
  in
  ignore (Sched.schedule_after sched (Time.of_us 1) tick);
  let words = minor_words_of (fun () -> ignore (Sched.run sched)) in
  check Alcotest.int "cycles" n !fired;
  if words /. float_of_int n > words_per_cycle then
    Alcotest.failf "%.2f minor words per cycle, budget %.0f"
      (words /. float_of_int n) words_per_cycle;
  let sched = Sched.create () in
  let ticks = ref 0 in
  let r = Sched.every sched (Time.of_us 1) (fun () -> incr ticks) in
  let words =
    minor_words_of (fun () -> ignore (Sched.run ~until:(Time.of_us n) sched))
  in
  Sched.cancel_recurring r;
  check Alcotest.int "periods" n !ticks;
  (* A run's fixed cost (stats, snapshot) is far below one word per
     period. *)
  if words >= float_of_int n then
    Alcotest.failf "recurring timer: %.0f minor words over %d periods" words n

(* --- Trace ------------------------------------------------------------ *)

let test_trace () =
  let trace = Trace.create () in
  Trace.add trace ~at:(Time.of_ms 1) ~label:"bgp" "hello";
  Trace.addf trace ~at:(Time.of_ms 2) ~label:"cm" "msg %d" 42;
  check Alcotest.int "length" 2 (Trace.length trace);
  (match Trace.entries trace with
  | [ a; b ] ->
      check Alcotest.string "first" "hello" a.Trace.detail;
      check Alcotest.string "second formatted" "msg 42" b.Trace.detail
  | _ -> Alcotest.fail "expected two entries");
  check Alcotest.int "by_label" 1 (List.length (Trace.by_label trace "bgp"));
  Trace.clear trace;
  check Alcotest.int "cleared" 0 (Trace.length trace)

let test_trace_ring_buffer () =
  let trace = Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Trace.addf trace ~at:(Time.of_ms i) ~label:"x" "e%d" i
  done;
  check Alcotest.int "retained" 3 (Trace.length trace);
  check Alcotest.int "total added" 5 (Trace.total_added trace);
  check Alcotest.int "dropped oldest" 2 (Trace.dropped trace);
  check (Alcotest.option Alcotest.int) "capacity" (Some 3) (Trace.capacity trace);
  (match Trace.entries trace with
  | [ a; _; c ] ->
      check Alcotest.string "oldest survivor" "e3" a.Trace.detail;
      check Alcotest.string "newest" "e5" c.Trace.detail
  | l -> Alcotest.failf "expected 3 entries, got %d" (List.length l));
  Trace.clear trace;
  check Alcotest.int "clear resets dropped" 0 (Trace.dropped trace);
  (* Unbounded traces never drop. *)
  let unbounded = Trace.create () in
  check (Alcotest.option Alcotest.int) "no capacity" None
    (Trace.capacity unbounded);
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Trace.create: capacity must be positive") (fun () ->
      ignore (Trace.create ~capacity:0 ()))

let () =
  Alcotest.run "horse_engine"
    [
      ( "time",
        [
          Alcotest.test_case "conversions" `Quick test_time_conversions;
          Alcotest.test_case "pretty printing" `Quick test_time_pp;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          prop_rng_int_bounds;
          prop_rng_permutation_valid;
          prop_rng_derangement_no_fixpoint;
          prop_rng_float_bounds;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "time order" `Quick test_queue_order;
          Alcotest.test_case "fifo at same time" `Quick test_queue_fifo_same_time;
          Alcotest.test_case "cancel" `Quick test_queue_cancel;
          Alcotest.test_case "size after cancel" `Quick
            test_queue_size_after_cancel;
          Alcotest.test_case "mass cancel preserves order" `Quick
            test_queue_mass_cancel_preserves_order;
          Alcotest.test_case "reschedule re-aims in place" `Quick
            test_queue_reschedule;
          prop_queue_sorted;
          prop_queue_matches_model;
          Alcotest.test_case "re-aim churn" `Quick test_queue_reaim_churn;
          Alcotest.test_case "in-place re-aim allocates nothing" `Quick
            test_queue_reaim_allocates_nothing;
          Alcotest.test_case "mass cancel leaves only live entries" `Quick
            test_queue_mass_cancel_leaves_live;
        ] );
      ( "hybrid_sched",
        [
          Alcotest.test_case "config rejected" `Quick test_config_rejected;
          Alcotest.test_case "DES jumps" `Quick test_des_jumps;
          Alcotest.test_case "FTI transition and return" `Quick
            test_fti_transition_and_return;
          Alcotest.test_case "activity refreshes quiet timer" `Quick
            test_activity_refreshes_quiet_timer;
          Alcotest.test_case "events during FTI" `Quick
            test_events_during_fti_execute;
          Alcotest.test_case "recurring + cancel" `Quick test_recurring_and_cancel;
          Alcotest.test_case "recurring cadence" `Quick
            test_recurring_cadence_no_drift;
          Alcotest.test_case "past schedule clamps" `Quick
            test_schedule_in_past_clamps;
          Alcotest.test_case "defer before clock advance" `Quick
            test_defer_runs_before_clock_advances;
          Alcotest.test_case "defer chains drain in instant" `Quick
            test_defer_chains_drain_in_instant;
          Alcotest.test_case "latch fires once at end of instant" `Quick
            test_latch_fires_once_at_end_of_instant;
          Alcotest.test_case "start in FTI" `Quick test_start_in_fti;
          Alcotest.test_case "FTI work exceeds DES" `Quick
            test_fti_work_exceeds_des;
          Alcotest.test_case
            "fast-forward respects events and post-activity quiet timeout"
            `Quick test_fast_forward_respects_events_and_quiet_timeout;
          Alcotest.test_case "fast-forward skips idle FTI" `Quick
            test_fast_forward_skips_idle_fti;
          Alcotest.test_case "deferred switch anchors the FTI grid" `Quick
            test_deferred_switch_anchors_grid;
          prop_fti_matches_stepping_model;
          Alcotest.test_case "re-run continues" `Quick test_rerun_continues;
          prop_sched_matches_reference;
          Alcotest.test_case "metrics agree with stats" `Quick
            test_sched_metrics_agree_with_stats;
          Alcotest.test_case "shared registry sums causal counts" `Quick
            test_shared_registry_causal_counts;
          Alcotest.test_case "schedule-pop-fire word budget" `Quick
            test_sched_cycle_word_budget;
        ] );
      ( "trace",
        [
          Alcotest.test_case "basics" `Quick test_trace;
          Alcotest.test_case "ring buffer" `Quick test_trace_ring_buffer;
        ] );
    ]
