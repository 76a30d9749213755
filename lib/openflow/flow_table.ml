open Horse_engine

type entry = {
  match_ : Ofmatch.t;
  priority : int;
  actions : Action.t list;
  cookie : int;
  idle_timeout : Time.t option;
  hard_timeout : Time.t option;
  installed_at : Time.t;
  mutable last_used : Time.t;
  mutable packets : int;
  mutable bytes : int;
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable probes : int;
  mutable view_sorts : int;
}

module MKtbl = Hashtbl.Make (Ofmatch.Match_key)
module Seqs = Map.Make (Int)

(* Timed entries ordered by (deadline, seq). *)
module Deadlines = Set.Make (struct
  type t = Time.t * int

  let compare (da, sa) (db, sb) =
    match Time.compare da db with 0 -> Int.compare sa sb | c -> c
end)

type t = {
  cls : entry Classifier.t;
  by_seq : (int, entry) Hashtbl.t;  (* live rules *)
  by_match : int list ref MKtbl.t;  (* match identity -> live seqs *)
  mutable count : int;
  mutable next_seq : int;
  (* Lazy (seq, entry) list sorted in match order — only entries/stats
     iteration and pp pay for sorting. *)
  mutable view : (int * entry) list option;
  (* Only entries with a timeout are filed here, under the deadline
     they had when filed; [filed] maps their seq to that deadline.
     [account] moves an idle deadline later without refiling, so a
     filed deadline is never later than the entry's real one. *)
  mutable deadlines : Deadlines.t;
  mutable filed : Time.t Seqs.t;
  stats : stats;
}

let create () =
  {
    cls = Classifier.create ();
    by_seq = Hashtbl.create 256;
    by_match = MKtbl.create 256;
    count = 0;
    next_seq = 0;
    view = None;
    deadlines = Deadlines.empty;
    filed = Seqs.empty;
    stats = { hits = 0; misses = 0; probes = 0; view_sorts = 0 };
  }

let stats t = t.stats
let size t = t.count

let order (sa, (a : entry)) (sb, (b : entry)) =
  match Int.compare b.priority a.priority with
  | 0 -> Int.compare sa sb
  | c -> c

let view t =
  match t.view with
  | Some v -> v
  | None ->
      let v =
        List.sort order (Hashtbl.fold (fun s e acc -> (s, e) :: acc) t.by_seq [])
      in
      t.stats.view_sorts <- t.stats.view_sorts + 1;
      t.view <- Some v;
      v

(* ---- deadlines -------------------------------------------------- *)

let deadline e =
  match (e.hard_timeout, e.idle_timeout) with
  | None, None -> None
  | Some hard, None -> Some (Time.add e.installed_at hard)
  | None, Some idle -> Some (Time.add e.last_used idle)
  | Some hard, Some idle ->
      Some (Time.min (Time.add e.installed_at hard) (Time.add e.last_used idle))

let file t seq e =
  match deadline e with
  | None -> ()
  | Some d ->
      t.deadlines <- Deadlines.add (d, seq) t.deadlines;
      t.filed <- Seqs.add seq d t.filed

let unfile t seq =
  match Seqs.find_opt seq t.filed with
  | None -> ()
  | Some d ->
      t.deadlines <- Deadlines.remove (d, seq) t.deadlines;
      t.filed <- Seqs.remove seq t.filed

let next_deadline t =
  match Deadlines.min_elt_opt t.deadlines with
  | Some (d, _) -> Some d
  | None -> None

(* ---- master rule set ------------------------------------------- *)

let match_seqs t m =
  match MKtbl.find_opt t.by_match (Ofmatch.match_key m) with
  | Some cell -> !cell
  | None -> []

let add_rule t ~now (fm : Ofmsg.flow_mod) =
  let entry =
    {
      match_ = fm.Ofmsg.match_;
      priority = fm.Ofmsg.priority;
      actions = fm.Ofmsg.actions;
      cookie = fm.Ofmsg.cookie;
      idle_timeout =
        (if fm.Ofmsg.idle_timeout_s = 0 then None
         else Some (Time.of_sec (float_of_int fm.Ofmsg.idle_timeout_s)));
      hard_timeout =
        (if fm.Ofmsg.hard_timeout_s = 0 then None
         else Some (Time.of_sec (float_of_int fm.Ofmsg.hard_timeout_s)));
      installed_at = now;
      last_used = now;
      packets = 0;
      bytes = 0;
    }
  in
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  Hashtbl.replace t.by_seq seq entry;
  let key = Ofmatch.match_key fm.Ofmsg.match_ in
  (match MKtbl.find_opt t.by_match key with
  | Some cell -> cell := seq :: !cell
  | None -> MKtbl.add t.by_match key (ref [ seq ]));
  Classifier.insert t.cls ~match_:fm.Ofmsg.match_ ~priority:fm.Ofmsg.priority ~seq entry;
  file t seq entry;
  t.count <- t.count + 1;
  t.view <- None

let remove_seq t seq =
  match Hashtbl.find_opt t.by_seq seq with
  | None -> None
  | Some e ->
      Hashtbl.remove t.by_seq seq;
      let key = Ofmatch.match_key e.match_ in
      (match MKtbl.find_opt t.by_match key with
      | Some cell -> (
          match List.filter (fun s -> s <> seq) !cell with
          | [] -> MKtbl.remove t.by_match key
          | kept -> cell := kept)
      | None -> ());
      Classifier.remove t.cls ~match_:e.match_ ~seq;
      unfile t seq;
      t.count <- t.count - 1;
      t.view <- None;
      Some e

let remove_seqs t seqs =
  List.filter_map (fun s -> Option.map (fun e -> (s, e)) (remove_seq t s)) seqs

let apply_flow_mod t ~now (fm : Ofmsg.flow_mod) =
  match fm.Ofmsg.command with
  | Ofmsg.Add ->
      let dup =
        List.filter
          (fun s ->
            match Hashtbl.find_opt t.by_seq s with
            | Some e -> e.priority = fm.Ofmsg.priority
            | None -> false)
          (match_seqs t fm.Ofmsg.match_)
      in
      ignore (remove_seqs t (List.sort Int.compare dup) : (int * entry) list);
      add_rule t ~now fm
  | Ofmsg.Modify -> (
      match List.sort Int.compare (match_seqs t fm.Ofmsg.match_) with
      | [] -> add_rule t ~now fm
      | seqs ->
          List.iter
            (fun seq ->
              match Hashtbl.find_opt t.by_seq seq with
              | None -> ()
              | Some e ->
                  let e' = { e with actions = fm.Ofmsg.actions } in
                  Hashtbl.replace t.by_seq seq e';
                  Classifier.remove t.cls ~match_:e.match_ ~seq;
                  Classifier.insert t.cls ~match_:e.match_ ~priority:e.priority ~seq e')
            seqs;
          t.view <- None)
  | Ofmsg.Delete ->
      let doomed =
        Hashtbl.fold
          (fun s e acc ->
            if Ofmatch.is_exact_overlap fm.Ofmsg.match_ e.match_ then s :: acc else acc)
          t.by_seq []
      in
      ignore (remove_seqs t (List.sort Int.compare doomed) : (int * entry) list)

let lookup t fields =
  let rule = Classifier.lookup t.cls fields in
  t.stats.probes <- Classifier.probes t.cls;
  match rule with
  | Some r ->
      t.stats.hits <- t.stats.hits + 1;
      Some r.Classifier.r_value
  | None ->
      t.stats.misses <- t.stats.misses + 1;
      None

let account entry ~now ~packets ~bytes =
  entry.packets <- entry.packets + packets;
  entry.bytes <- entry.bytes + bytes;
  entry.last_used <- now

(* Pops every filed deadline up to [now]. An entry whose idle deadline
   has moved past [now] since it was filed is refiled, not expired. *)
let expire t ~now =
  let rec sweep gone =
    match Deadlines.min_elt_opt t.deadlines with
    | Some ((d, seq) as key) when Time.(d <= now) -> (
        t.deadlines <- Deadlines.remove key t.deadlines;
        t.filed <- Seqs.remove seq t.filed;
        let e = Hashtbl.find t.by_seq seq in
        match deadline e with
        | Some d' when Time.(d' > now) ->
            file t seq e;
            sweep gone
        | Some _ | None -> sweep ((seq, e) :: gone))
    | Some _ | None -> gone
  in
  let gone = sweep [] in
  List.iter (fun (seq, _) -> ignore (remove_seq t seq : entry option)) gone;
  List.map snd (List.sort order gone)

let entries t = List.map snd (view t)

let matching_entries t m =
  List.filter_map
    (fun (_, e) -> if Ofmatch.is_exact_overlap m e.match_ then Some e else None)
    (view t)
