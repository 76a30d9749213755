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
  mutable micro_hits : int;
  mutable mega_hits : int;
  mutable slow_hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable view_sorts : int;
  mutable lookups : int;
}

module Mask = Ofmatch.Mask
module Ftbl = Hashtbl.Make (Ofmatch.Fields_key)
module MKtbl = Hashtbl.Make (Ofmatch.Match_key)

(* A cache cell records the decision for one packet (microflow) or one
   megaflow region, tagged with the seq of the rule that produced it
   ([-1] = cached miss) so removal-driven invalidation is O(cells
   sourced from the removed rules). *)
type cell = { c_seq : int; c_entry : entry option }

let micro_cap = 1 lsl 16
let mega_cap = 1 lsl 14
let mega_mask_cap = 64

type t = {
  cls : entry Classifier.t;
  by_seq : (int, entry) Hashtbl.t;  (* live rules *)
  by_match : int list ref MKtbl.t;  (* match identity -> live seqs *)
  mutable count : int;
  mutable next_seq : int;
  micro : cell Ftbl.t;
  mutable mega : (Mask.t * cell Ftbl.t) list;  (* probe = insertion order *)
  mutable mega_count : int;
  (* Lazy (seq, entry) list sorted in match order — only the reference
     scan, entries/stats iteration and pp pay for sorting. *)
  mutable view : (int * entry) list option;
  stats : stats;
}

let create () =
  {
    cls = Classifier.create ();
    by_seq = Hashtbl.create 256;
    by_match = MKtbl.create 256;
    count = 0;
    next_seq = 0;
    micro = Ftbl.create 1024;
    mega = [];
    mega_count = 0;
    view = None;
    stats =
      {
        micro_hits = 0;
        mega_hits = 0;
        slow_hits = 0;
        misses = 0;
        invalidations = 0;
        view_sorts = 0;
        lookups = 0;
      };
  }

let stats t = t.stats
let size t = t.count
let cache_sizes t = (Ftbl.length t.micro, t.mega_count)

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

(* ---- caches ---------------------------------------------------- *)

let flush_micro t =
  let n = Ftbl.length t.micro in
  if n > 0 then begin
    Ftbl.reset t.micro;
    t.stats.invalidations <- t.stats.invalidations + n
  end

let flush_mega t =
  if t.mega_count > 0 then t.stats.invalidations <- t.stats.invalidations + t.mega_count;
  t.mega <- [];
  t.mega_count <- 0

let micro_install t key cell =
  if Ftbl.length t.micro >= micro_cap then flush_micro t;
  Ftbl.replace t.micro key cell

let mega_install t mask key cell =
  if t.mega_count >= mega_cap then flush_mega t;
  match List.assoc_opt mask t.mega with
  | Some tbl ->
      if not (Ftbl.mem tbl key) then t.mega_count <- t.mega_count + 1;
      Ftbl.replace tbl key cell
  | None ->
      if List.length t.mega >= mega_mask_cap then flush_mega t;
      let tbl = Ftbl.create 64 in
      Ftbl.replace tbl key cell;
      t.mega <- t.mega @ [ (mask, tbl) ];
      t.mega_count <- t.mega_count + 1

(* A new rule can change the decision only for packets it matches:
   drop microflows it matches and megaflow regions it overlaps
   (including cached misses, which may become hits). *)
let invalidate_for_add t (m : Ofmatch.t) =
  let doomed =
    Ftbl.fold (fun k _ acc -> if Ofmatch.matches m k then k :: acc else acc) t.micro []
  in
  List.iter (Ftbl.remove t.micro) doomed;
  t.stats.invalidations <- t.stats.invalidations + List.length doomed;
  List.iter
    (fun (mask, tbl) ->
      let doomed =
        Ftbl.fold
          (fun rep _ acc -> if Ofmatch.overlaps_region m mask rep then rep :: acc else acc)
          tbl []
      in
      List.iter (Ftbl.remove tbl) doomed;
      let n = List.length doomed in
      t.mega_count <- t.mega_count - n;
      t.stats.invalidations <- t.stats.invalidations + n)
    t.mega

(* Removing rules only invalidates cells they produced; a cached miss
   stays a miss when rules disappear. *)
let invalidate_for_remove t seqs =
  let dead_set = Hashtbl.create (List.length seqs) in
  List.iter (fun s -> Hashtbl.replace dead_set s ()) seqs;
  let dead seq = Hashtbl.mem dead_set seq in
  let doomed =
    Ftbl.fold (fun k c acc -> if c.c_seq >= 0 && dead c.c_seq then k :: acc else acc)
      t.micro []
  in
  List.iter (Ftbl.remove t.micro) doomed;
  t.stats.invalidations <- t.stats.invalidations + List.length doomed;
  List.iter
    (fun (_, tbl) ->
      let doomed =
        Ftbl.fold (fun rep c acc -> if c.c_seq >= 0 && dead c.c_seq then rep :: acc else acc)
          tbl []
      in
      List.iter (Ftbl.remove tbl) doomed;
      let n = List.length doomed in
      t.mega_count <- t.mega_count - n;
      t.stats.invalidations <- t.stats.invalidations + n)
    t.mega

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
  t.count <- t.count + 1;
  t.view <- None;
  invalidate_for_add t fm.Ofmsg.match_

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
      t.count <- t.count - 1;
      t.view <- None;
      Some e

let remove_seqs t seqs =
  let gone = List.filter_map (fun s -> Option.map (fun e -> (s, e)) (remove_seq t s)) seqs in
  if gone <> [] then invalidate_for_remove t (List.map fst gone);
  gone

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
          t.view <- None;
          (* Cached decisions hold stale entry records. *)
          invalidate_for_remove t seqs)
  | Ofmsg.Delete ->
      let doomed =
        Hashtbl.fold
          (fun s e acc ->
            if Ofmatch.is_exact_overlap fm.Ofmsg.match_ e.match_ then s :: acc else acc)
          t.by_seq []
      in
      ignore (remove_seqs t (List.sort Int.compare doomed) : (int * entry) list)

(* ---- lookup hierarchy ------------------------------------------ *)

let lookup t fields =
  t.stats.lookups <- t.stats.lookups + 1;
  match Ftbl.find_opt t.micro fields with
  | Some cell ->
      t.stats.micro_hits <- t.stats.micro_hits + 1;
      cell.c_entry
  | None -> (
      let rec probe = function
        | [] -> None
        | (mask, tbl) :: rest -> (
            match Ftbl.find_opt tbl (Mask.project mask fields) with
            | Some cell -> Some cell
            | None -> probe rest)
      in
      match probe t.mega with
      | Some cell ->
          t.stats.mega_hits <- t.stats.mega_hits + 1;
          micro_install t fields cell;
          cell.c_entry
      | None ->
          let rule, mask = Classifier.lookup t.cls fields in
          let cell =
            match rule with
            | Some r ->
                t.stats.slow_hits <- t.stats.slow_hits + 1;
                { c_seq = r.Classifier.r_seq; c_entry = Some r.Classifier.r_value }
            | None ->
                t.stats.misses <- t.stats.misses + 1;
                { c_seq = -1; c_entry = None }
          in
          mega_install t mask (Mask.project mask fields) cell;
          micro_install t fields cell;
          cell.c_entry)

let lookup_reference t fields =
  List.find_map
    (fun (_, e) -> if Ofmatch.matches e.match_ fields then Some e else None)
    (view t)

let account entry ~now ~packets ~bytes =
  entry.packets <- entry.packets + packets;
  entry.bytes <- entry.bytes + bytes;
  entry.last_used <- now

let expired_at now e =
  let hard_hit =
    match e.hard_timeout with
    | Some dt -> Time.(Time.sub now e.installed_at >= dt)
    | None -> false
  in
  let idle_hit =
    match e.idle_timeout with
    | Some dt -> Time.(Time.sub now e.last_used >= dt)
    | None -> false
  in
  hard_hit || idle_hit

let expire t ~now =
  let doomed =
    Hashtbl.fold (fun s e acc -> if expired_at now e then s :: acc else acc) t.by_seq []
  in
  let gone = remove_seqs t (List.sort Int.compare doomed) in
  List.map snd (List.sort order gone)

let entries t = List.map snd (view t)

let matching_entries t m =
  List.filter_map
    (fun (_, e) -> if Ofmatch.is_exact_overlap m e.match_ then Some e else None)
    (view t)

let clear t =
  Hashtbl.reset t.by_seq;
  MKtbl.reset t.by_match;
  Classifier.clear t.cls;
  t.count <- 0;
  Ftbl.reset t.micro;
  t.mega <- [];
  t.mega_count <- 0;
  t.view <- None

let pp fmt t =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline
    (fun fmt (e : entry) ->
      Format.fprintf fmt "prio=%d %a -> [%a] pkts=%d bytes=%d" e.priority
        Ofmatch.pp e.match_
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ")
           Action.pp)
        e.actions e.packets e.bytes)
    fmt (entries t)
