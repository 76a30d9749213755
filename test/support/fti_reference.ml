(* FTI as the paper runs it, stepped literally: the oracle for the
   scheduler's closed-form FTI accounting. Every increment is a loop
   step that runs the events due in it (an instant's deferred activity
   after that instant's events) and then applies the quiet timeout. An
   episode's grid starts where it enters FTI, or at a run's start when
   it is already in FTI. An increment counts as skipped when it holds
   no event and is neither its episode's first nor its last; a step of
   zero length (an episode that begins at the horizon) counts no
   increment. Events form a static schedule; times are microseconds. *)

type action = Plain | Activity | Deferred_activity

type result = {
  transitions : (int * bool * string) list;  (** at, to FTI?, reason *)
  increments : int;
  skipped : int;
  virtual_in_fti : int;
  virtual_in_des : int;
  fired : (int * int) list;  (** event index, fire time *)
}

let run ~increment ~quiet ~start_in_fti events horizons =
  let pending =
    ref (List.sort compare (List.mapi (fun i (t, a) -> (t, i, a)) events))
  in
  let clock = ref 0 and fti = ref false and last = ref 0 in
  let first = ref false in
  let deferred = ref false and trans = ref [] and fired = ref [] in
  let incs = ref 0 and skipped = ref 0 and vf = ref 0 and vd = ref 0 in
  let switch to_fti reason =
    trans := (!clock, to_fti, reason) :: !trans;
    fti := to_fti;
    first := to_fti
  in
  let activity () =
    last := !clock;
    if not !fti then switch true "activity"
  in
  let flush () = if !deferred then (deferred := false; activity ()) in
  (* Runs every event due by [upto]; returns whether any ran. *)
  let rec drain upto ran =
    match !pending with
    | (t, i, a) :: rest when t <= upto ->
        if t > !clock then flush ();
        pending := rest;
        clock := t;
        fired := (i, t) :: !fired;
        (match a with
        | Plain -> ()
        | Activity -> activity ()
        | Deferred_activity -> deferred := true);
        drain upto true
    | _ -> flush (); ran
  in
  let step u =
    let start = !clock and was_first = !first in
    let target = min (start + increment) u in
    first := false;
    let ran = drain target false in
    clock := target;
    vf := !vf + (target - start);
    if target - !last >= quiet then switch false "quiet timeout";
    if target > start then begin
      incr incs;
      if not (was_first || ran || (not !fti) || target >= u) then
        incr skipped
    end
  in
  let rec loop u =
    if !fti then begin
      step u;
      if not (!fti && !clock >= u) then loop u
    end
    else
      match !pending with
      | (t, _, _) :: _ when t <= u ->
          vd := !vd + (t - !clock);
          clock := t;
          ignore (drain t false);
          loop u
      | _ ->
          vd := !vd + (u - !clock);
          clock := u
  in
  if start_in_fti then activity ();
  List.iter (fun u -> first := !fti; loop u) horizons;
  {
    transitions = List.rev !trans;
    increments = !incs;
    skipped = !skipped;
    virtual_in_fti = !vf;
    virtual_in_des = !vd;
    fired = List.rev !fired;
  }
