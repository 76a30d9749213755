(* ------------------------------------------------------------------ *)
(* Delta solver: persistent bottleneck state, event-scoped resolves.  *)
(* ------------------------------------------------------------------ *)

module Delta = struct
  type stats = {
    solves : int;
    events : int;
    flows_touched : int;
    links_touched : int;
    expansions : int;
    promotions : int;
  }

  (* Flush workspace, grown on demand and reused across flushes. A
     round's solve covers [n] flows ([sol], by slot: scope first, then
     clamped) over [nl] dense links; per-flow link lists and per-link
     member lists are flat offset/index arrays. Every array holds ints
     or floats, so no store into it runs the write barrier. *)
  type work = {
    mutable sol : int array;
    mutable key : int array;  (* fids to sort, carrying [idx] *)
    mutable idx : int array;  (* the slot of each key *)
    mutable kbuf : int array;  (* merge buffers for [key] and [idx] *)
    mutable ibuf : int array;
    mutable runs : int array;  (* ascending-run starts during the sort *)
    mutable insolve_links : int array;  (* link ids *)
    mutable n_insolve : int;
    mutable lid_of : int array;  (* dense link -> link id *)
    mutable nl : int;  (* dense links so far *)
    mutable nfl : int;  (* entries of [fl] so far *)
    mutable eff : float array;
        (* effective demand per flow; the water fill sorts it in place *)
    mutable rates : float array;
    mutable order : int array;  (* order.(i) is the flow of eff.(i) *)
    mutable frozen : bool array;
    mutable fl_off : int array;  (* flow i's links: fl.(fl_off.(i) ..) *)
    mutable fl : int array;
    mutable cap : float array;
    mutable levels : float array;
    mutable frozen_load : float array;
    mutable unfrozen : int array;
    mutable lm_off : int array;  (* link li's flows: lm.(lm_off.(li) ..) *)
    mutable lm : int array;
  }

  module Itbl = Hashtbl.Make (Int)

  (* Flow state lives in columns indexed by a dense slot; a slot is
     reused once its flow has left (see [retire]). Link state lives in
     columns indexed by link id. *)
  type t = {
    capacity : int -> float;
    slot_of : int Itbl.t;  (* id -> slot; read only by the API entries *)
    (* flows, by slot *)
    mutable fid : int array;
    mutable demand : float array;
    mutable rate : float array;
    mutable flinks : int list array;
    mutable state : Bytes.t;  (* [live] and [pending] bits *)
    mutable scope : int array;  (* = the flush epoch while in the scope *)
    mutable clamped : int array;  (* = the round stamp while clamped *)
    mutable promoted : int array;  (* = the round stamp once promoted *)
    mutable n_slots : int;  (* slots ever handed out *)
    mutable spare : int array;
        (* retired slots: [0, n_free) free, [n_free, n_cooling) retired
           before the last flush, [n_cooling, n_spare) retired since *)
    mutable n_free : int;
    mutable n_cooling : int;
    mutable n_spare : int;
    (* links, by link id; [lcap] is 0 where no link is held *)
    mutable lcap : float array;
    mutable level : float array;
        (* water level at which the link last saturated as the selected
           bottleneck; [infinity] when its members all froze
           demand-limited (residual may still be zero). *)
    mutable lload : float array;
        (* sum of member rates. Recomputed exactly (ascending fid
           order) whenever the link is in a solve; adjusted by the
           event's own exact delta on fast-path commits. Only ever
           compared against [lcap], never fed into rate arithmetic, so
           ulp-level reassociation drift is harmless: it can only flip
           a marginal fast/slow decision, and the slow path is always
           correct. *)
    mutable members : int array array;  (* slots, [0, n_members), ascending fid *)
    mutable n_members : int array;
    mutable insolve : int array;  (* = the flush epoch while in the solve *)
    mutable dense_round : int array;  (* round stamp for which [dense] holds *)
    mutable dense : int array;  (* index in the round's dense link numbering *)
    mutable seed_flows : int list;  (* slots dirtied since the last flush *)
    mutable seed_links : int list;
    mutable fast_touched : int list;
        (* slots committed by the fast path since the last flush,
           newest first *)
    mutable pending_fast_flows : int;
    mutable pending_fast_links : int;
        (* fast-path work, folded into the stats at the next flush so
           callers diffing stats around a solve see it *)
    mutable last_fast : int list;
        (* the last flush's fast commits: newest first, or in event
           order when the flush ran a water fill *)
    mutable last_scope : int;
        (* that water fill's scope, still [ws.sol.(0 .. last_scope-1)] *)
    mutable epoch : int;  (* flushes that ran a solve *)
    mutable round : int;  (* solve rounds, over all flushes *)
    ws : work;
    mutable s_solves : int;
    mutable s_events : int;
    mutable s_flows_touched : int;
    mutable s_links_touched : int;
    mutable s_expansions : int;
    mutable s_promotions : int;
  }

  (* Bits of [state]. A pending flow waits in [seed_flows] for a solve:
     its rate is stale and is not counted in the [lload] of its links.
     A slot that is not live belongs to a removed flow, so a stale seed
     skips it. *)
  let live = 1
  let pending = 2

  let create ?(links = 256) ~capacity () =
    let nl = max 16 links in
    {
      capacity;
      slot_of = Itbl.create 1024;
      fid = Array.make 256 0;
      demand = Array.make 256 0.0;
      rate = Array.make 256 0.0;
      flinks = Array.make 256 [];
      state = Bytes.make 256 '\000';
      scope = Array.make 256 (-1);
      clamped = Array.make 256 (-1);
      promoted = Array.make 256 (-1);
      n_slots = 0;
      spare = Array.make 64 0;
      n_free = 0;
      n_cooling = 0;
      n_spare = 0;
      lcap = Array.make nl 0.0;
      level = Array.make nl infinity;
      lload = Array.make nl 0.0;
      members = Array.make nl [||];
      n_members = Array.make nl 0;
      insolve = Array.make nl (-1);
      dense_round = Array.make nl (-1);
      dense = Array.make nl 0;
      seed_flows = [];
      seed_links = [];
      fast_touched = [];
      pending_fast_flows = 0;
      pending_fast_links = 0;
      last_fast = [];
      last_scope = 0;
      epoch = 0;
      round = 0;
      ws =
        {
          sol = [||];
          key = [||];
          idx = [||];
          kbuf = [||];
          ibuf = [||];
          runs = [||];
          insolve_links = [||];
          n_insolve = 0;
          lid_of = [||];
          nl = 0;
          nfl = 0;
          eff = [||];
          rates = [||];
          order = [||];
          frozen = [||];
          fl_off = [||];
          fl = [||];
          cap = [||];
          levels = [||];
          frozen_load = [||];
          unfrozen = [||];
          lm_off = [||];
          lm = [||];
        };
      s_solves = 0;
      s_events = 0;
      s_flows_touched = 0;
      s_links_touched = 0;
      s_expansions = 0;
      s_promotions = 0;
    }

  (* [a] resized to exactly [c] elements, keeping its contents. *)
  let resize a c fill =
    let b = Array.make c fill in
    Array.blit a 0 b 0 (min c (Array.length a));
    b

  (* [a] with room for [n] elements, keeping its contents. *)
  let grow a n fill =
    let len = Array.length a in
    if n <= len then a else resize a (max n (2 * len)) fill

  let has_state t s bit = Char.code (Bytes.get t.state s) land bit <> 0
  let set_state t s bits = Bytes.set t.state s (Char.unsafe_chr bits)

  (* --- flow slots --- *)

  (* The slot columns grow by half, not double: a column costs a word
     per slot whether or not a flow holds it. *)
  let grow_slots t =
    let n = Array.length t.fid + (Array.length t.fid / 2) in
    t.fid <- resize t.fid n 0;
    t.demand <- resize t.demand n 0.0;
    t.rate <- resize t.rate n 0.0;
    t.flinks <- resize t.flinks n [];
    t.scope <- resize t.scope n (-1);
    t.clamped <- resize t.clamped n (-1);
    t.promoted <- resize t.promoted n (-1);
    let state = Bytes.make n '\000' in
    Bytes.blit t.state 0 state 0 (Bytes.length t.state);
    t.state <- state

  (* A free slot: the newest one freed, or a new one. *)
  let new_slot t =
    if t.n_free > 0 then begin
      let sp = t.spare in
      let s = sp.(t.n_free - 1) in
      (* close the hole: the last cooling slot moves down into it, and
         the last retired slot into the one that leaves *)
      sp.(t.n_free - 1) <- sp.(t.n_cooling - 1);
      sp.(t.n_cooling - 1) <- sp.(t.n_spare - 1);
      t.n_free <- t.n_free - 1;
      t.n_cooling <- t.n_cooling - 1;
      t.n_spare <- t.n_spare - 1;
      s
    end
    else begin
      let s = t.n_slots in
      if s = Array.length t.fid then grow_slots t;
      t.n_slots <- s + 1;
      s
    end

  (* A removed flow's slot stays put until the second flush after its
     removal: until then a seed list, the fast-path list or the last
     scope may still name it, and {!iter_touched} reads its fid. *)
  let retire t s =
    set_state t s 0;
    t.flinks.(s) <- [];
    if t.n_spare = Array.length t.spare then
      t.spare <- grow t.spare (t.n_spare + 1) 0;
    t.spare.(t.n_spare) <- s;
    t.n_spare <- t.n_spare + 1

  (* --- link table and member vectors --- *)

  let has_link t lid = lid >= 0 && lid < Array.length t.lcap && t.lcap.(lid) <> 0.0

  (* Room for link ids below [n]. Like the slot columns, the link
     columns grow by half. *)
  let grow_links t n =
    let n = max n (Array.length t.lcap + (Array.length t.lcap / 2)) in
    t.lcap <- resize t.lcap n 0.0;
    t.level <- resize t.level n infinity;
    t.lload <- resize t.lload n 0.0;
    t.members <- resize t.members n [||];
    t.n_members <- resize t.n_members n 0;
    t.insolve <- resize t.insolve n (-1);
    t.dense_round <- resize t.dense_round n (-1);
    t.dense <- resize t.dense n 0

  (* Holds link [lid], consulting [capacity] for a new one. A dropped
     link keeps its member vector for the next time it is held. *)
  let hold_link t lid =
    if not (has_link t lid) then begin
      if lid < 0 then invalid_arg "Fair_share.Delta: negative link id";
      let cap = t.capacity lid in
      if cap <= 0.0 then
        invalid_arg "Fair_share.Delta: non-positive capacity";
      if lid >= Array.length t.lcap then grow_links t (lid + 1);
      t.lcap.(lid) <- cap;
      t.level.(lid) <- infinity;
      t.lload.(lid) <- 0.0;
      t.n_members.(lid) <- 0;
      t.insolve.(lid) <- -1;
      t.dense_round.(lid) <- -1
    end

  let drop_link t lid =
    t.lcap.(lid) <- 0.0;
    t.level.(lid) <- infinity;
    t.lload.(lid) <- 0.0

  (* Every link of the list is held afterwards; raises before any flow
     state changes when one has no valid capacity. *)
  let rec validate_links t = function
    | [] -> ()
    | lid :: rest ->
        hold_link t lid;
        validate_links t rest

  (* First position in [mem.(0 .. n-1)] whose fid is >= [id]. *)
  let member_pos t mem n id =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if t.fid.(mem.(mid)) < id then lo := mid + 1 else hi := mid
    done;
    !lo

  (* Member vectors are int arrays shifted by typed loops: the
     runtime's blit would run the write barrier on every element of a
     major-heap array. *)
  let add_member t lid s =
    let id = t.fid.(s) and n = t.n_members.(lid) in
    let mem = t.members.(lid) in
    let i = member_pos t mem n id in
    if i < n && t.fid.(mem.(i)) = id then mem.(i) <- s
    else begin
      let mem =
        if n < Array.length mem then mem
        else begin
          let m = grow mem (max 4 (n + 1)) 0 in
          t.members.(lid) <- m;
          m
        end
      in
      for k = n downto i + 1 do
        mem.(k) <- mem.(k - 1)
      done;
      mem.(i) <- s;
      t.n_members.(lid) <- n + 1
    end

  let remove_member t lid id =
    let n = t.n_members.(lid) and mem = t.members.(lid) in
    let i = member_pos t mem n id in
    if i < n && t.fid.(mem.(i)) = id then begin
      for k = i to n - 2 do
        mem.(k) <- mem.(k + 1)
      done;
      t.n_members.(lid) <- n - 1
    end

  let rec join_links t s = function
    | [] -> ()
    | lid :: rest ->
        add_member t lid s;
        join_links t s rest

  let rec unsaturated t = function
    | [] -> true
    | lid :: rest ->
        ((not (has_link t lid)) || t.level.(lid) = infinity) && unsaturated t rest

  (* Whether every link sits below saturation with room for [x] more. *)
  let rec fits t x = function
    | [] -> true
    | lid :: rest ->
        t.level.(lid) = infinity
        && t.lload.(lid) +. x <= t.lcap.(lid)
        && fits t x rest

  let rec add_load t x = function
    | [] -> ()
    | lid :: rest ->
        t.lload.(lid) <- t.lload.(lid) +. x;
        add_load t x rest

  (* Takes [x] off each held link's load; a link left empty is
     dropped. *)
  let rec shed_load t x = function
    | [] -> ()
    | lid :: rest ->
        if has_link t lid then begin
          t.lload.(lid) <- t.lload.(lid) -. x;
          if t.n_members.(lid) = 0 then drop_link t lid
        end;
        shed_load t x rest

  (* Takes flow [s] (id [id]) off its old links. With [relax] its
     committed rate also leaves their load (a pending flow's never
     entered it), and a link left empty is dropped. *)
  let rec leave_links t s id ~relax = function
    | [] -> ()
    | lid :: rest ->
        if has_link t lid then begin
          remove_member t lid id;
          if relax then begin
            if not (has_state t s pending) then
              t.lload.(lid) <- t.lload.(lid) -. t.rate.(s);
            if t.n_members.(lid) = 0 then drop_link t lid
          end
        end;
        leave_links t s id ~relax rest

  (* Fast paths: an event whose links all sit strictly below
     saturation (level = infinity, and any added load fits in the
     residual) cannot change the bottleneck set — the new/removed/
     rerouted flow is demand-limited and every other flow's rate is
     untouched, so the event commits in O(path) with no water-fill at
     all. This is the common case for real workloads, where most links
     run below capacity; the scoped solve in {!flush} only runs for
     events that actually move a bottleneck. *)

  let fast_commit t s ~links =
    t.fast_touched <- s :: t.fast_touched;
    t.pending_fast_flows <- t.pending_fast_flows + 1;
    t.pending_fast_links <- t.pending_fast_links + List.length links

  let add_flow t ~id ~demand ~links =
    if demand < 0.0 then
      invalid_arg "Fair_share.Delta.add_flow: negative demand";
    if Itbl.mem t.slot_of id then
      invalid_arg "Fair_share.Delta.add_flow: duplicate id";
    validate_links t links;
    let s = new_slot t in
    t.fid.(s) <- id;
    t.demand.(s) <- demand;
    t.rate.(s) <- 0.0;
    t.flinks.(s) <- links;
    set_state t s live;
    t.scope.(s) <- -1;
    t.clamped.(s) <- -1;
    t.promoted.(s) <- -1;
    Itbl.add t.slot_of id s;
    join_links t s links;
    t.s_events <- t.s_events + 1;
    if fits t demand links then begin
      t.rate.(s) <- demand;
      add_load t demand links;
      fast_commit t s ~links
    end
    else begin
      set_state t s (live lor pending);
      t.seed_flows <- s :: t.seed_flows
    end

  let remove_flow t ~id =
    match Itbl.find t.slot_of id with
    | exception Not_found -> ()
    | s ->
        Itbl.remove t.slot_of id;
        let links = t.flinks.(s) in
        (* A pending flow never entered a committed solution: dropping
           it moves no one's rate, and its stale rate was never added
           to its links' load. *)
        let relax = has_state t s pending || unsaturated t links in
        leave_links t s id ~relax links;
        retire t s;
        t.s_events <- t.s_events + 1;
        if relax then
          (* departure from links that never bind relaxes every
             constraint without moving a level: nobody's rate changes *)
          t.pending_fast_flows <- t.pending_fast_flows + 1
        else t.seed_links <- List.rev_append links t.seed_links

  let set_links t ~id ~links =
    match Itbl.find t.slot_of id with
    | exception Not_found ->
        invalid_arg "Fair_share.Delta.set_links: unknown flow"
    | s ->
        validate_links t links;
        let old_links = t.flinks.(s) in
        let old_unsaturated =
          (not (has_state t s pending))
          && t.rate.(s) = t.demand.(s)
          && unsaturated t old_links
        in
        leave_links t s id ~relax:false old_links;
        t.flinks.(s) <- links;
        join_links t s links;
        t.s_events <- t.s_events + 1;
        let r = t.rate.(s) in
        if old_unsaturated && fits t r links then begin
          shed_load t r old_links;
          add_load t r links;
          fast_commit t s ~links
        end
        else begin
          set_state t s (live lor pending);
          t.seed_links <- List.rev_append old_links t.seed_links;
          t.seed_flows <- s :: t.seed_flows
        end

  let rate t ~id =
    match Itbl.find t.slot_of id with
    | s -> t.rate.(s)
    | exception Not_found -> 0.0

  (* A flow removed since its commit reads rate 0. *)
  let iter_touched t visit =
    let visit_slot s =
      visit t.fid.(s) (if has_state t s live then t.rate.(s) else 0.0)
    in
    List.iter visit_slot t.last_fast;
    for i = 0 to t.last_scope - 1 do
      visit_slot t.ws.sol.(i)
    done

  let fold_link t ~link f init =
    if link < 0 || link >= Array.length t.n_members then init
    else begin
      let mem = t.members.(link) in
      let acc = ref init in
      for j = 0 to t.n_members.(link) - 1 do
        let s = mem.(j) in
        acc := f t.fid.(s) t.rate.(s) !acc
      done;
      !acc
    end

  let flow_count t = Itbl.length t.slot_of

  let stats t =
    {
      solves = t.s_solves;
      events = t.s_events;
      flows_touched = t.s_flows_touched;
      links_touched = t.s_links_touched;
      expansions = t.s_expansions;
      promotions = t.s_promotions;
    }

  (* --- the scoped water fill --- *)

  (* Room for [n] entries in the sort keys. The two arrays always grow
     together, so they keep one length. *)
  let reserve w n =
    if n > Array.length w.key then begin
      let c = max n (2 * Array.length w.key) in
      w.key <- resize w.key c 0;
      w.idx <- resize w.idx c 0
    end

  (* Sorts [w.key.(0 .. n-1)] ascending, carrying [w.idx] along (keys
     are unique fids). A natural merge sort: the runs already ascending
     in the input (the clamped gather is one per member vector) are
     merged pairwise through [kbuf]/[ibuf] until one is left. *)
  let sort_keys w n =
    if n + 1 > Array.length w.runs then begin
      let c = max (n + 1) (2 * Array.length w.runs) in
      w.kbuf <- resize w.kbuf c 0;
      w.ibuf <- resize w.ibuf c 0;
      w.runs <- resize w.runs c 0
    end;
    let runs = w.runs in
    let nr = ref 0 in
    for i = 0 to n - 1 do
      if i = 0 || w.key.(i) < w.key.(i - 1) then begin
        runs.(!nr) <- i;
        incr nr
      end
    done;
    runs.(!nr) <- n;
    let key = ref w.key and idx = ref w.idx in
    let kb = ref w.kbuf and ib = ref w.ibuf in
    while !nr > 1 do
      let sk = !key and si = !idx and dk = !kb and di = !ib in
      for r = 0 to (!nr - 1) / 2 do
        let lo = runs.(2 * r) in
        let mid = runs.(min (2 * r + 1) !nr) in
        let hi = runs.(min (2 * r + 2) !nr) in
        let i = ref lo and j = ref mid in
        for o = lo to hi - 1 do
          if !j >= hi || (!i < mid && sk.(!i) < sk.(!j)) then begin
            dk.(o) <- sk.(!i);
            di.(o) <- si.(!i);
            incr i
          end
          else begin
            dk.(o) <- sk.(!j);
            di.(o) <- si.(!j);
            incr j
          end
        done;
        runs.(r) <- lo
      done;
      nr := (!nr + 1) / 2;
      runs.(!nr) <- n;
      key := dk;
      idx := di;
      kb := sk;
      ib := si
    done;
    if !key != w.key then begin
      let key = !key and idx = !idx in
      for i = 0 to n - 1 do
        w.key.(i) <- key.(i);
        w.idx.(i) <- idx.(i)
      done
    end

  (* Sorts [key.(lo .. hi-1)] ascending, carrying [order] along: a
     quicksort with a three-way partition, so the few distinct demands
     and clamped rates of a real scope cost one pass each. Any order
     among equal keys is fine: freezes of equal value commute. *)
  let swap (key : float array) (order : int array) i j =
    let k = key.(i) and o = order.(i) in
    key.(i) <- key.(j);
    order.(i) <- order.(j);
    key.(j) <- k;
    order.(j) <- o

  let rec sort_by_eff (key : float array) (order : int array) lo hi =
    if hi - lo <= 16 then
      for i = lo + 1 to hi - 1 do
        let j = ref i in
        while !j > lo && key.(!j) < key.(!j - 1) do
          swap key order !j (!j - 1);
          decr j
        done
      done
    else begin
      let a = key.(lo) and b = key.((lo + hi) / 2) and c = key.(hi - 1) in
      let p =
        if a < b then if b < c then b else if a < c then c else a
        else if a < c then a
        else if b < c then c
        else b
      in
      (* [lo, lt) < p, [lt, i) = p, (gt, hi) > p *)
      let lt = ref lo and i = ref lo and gt = ref (hi - 1) in
      while !i <= !gt do
        let k = key.(!i) in
        if k < p then begin
          swap key order !lt !i;
          incr lt;
          incr i
        end
        else if k > p then begin
          swap key order !i !gt;
          decr gt
        end
        else incr i
      done;
      if !lt - lo < hi - !gt - 1 then begin
        sort_by_eff key order lo !lt;
        sort_by_eff key order (!gt + 1) hi
      end
      else begin
        sort_by_eff key order (!gt + 1) hi;
        sort_by_eff key order lo !lt
      end
    end

  (* One scoped water-fill over the [n] flows and [nl] dense links laid
     out in [w]. Fills [w.rates] and the per-dense-link saturation
     levels [w.levels] ([infinity] = never selected as bottleneck).
     Sorted-demand water filling with a demand-wins tie rule: each
     round either saturates one bottleneck link or retires the whole
     batch of demand-limited flows below the current water level, so
     the round count is bounded by [#links + #distinct-demand-batches]
     rather than [#flows]. Every freeze happens in ascending rate
     order, so a link's frozen load is a canonical ascending-order sum
     of its members' rates — which is what makes levels comparable
     across scoped and full solves. *)
  let waterfill w n nl =
    let eff = w.eff and rates = w.rates and frozen = w.frozen in
    let fl = w.fl and fl_off = w.fl_off and order = w.order in
    let levels = w.levels and frozen_load = w.frozen_load in
    let unfrozen = w.unfrozen and cap = w.cap in
    for li = 0 to nl - 1 do
      levels.(li) <- infinity;
      frozen_load.(li) <- 0.0;
      unfrozen.(li) <- 0
    done;
    for k = 0 to fl_off.(n) - 1 do
      unfrozen.(fl.(k)) <- unfrozen.(fl.(k)) + 1
    done;
    let n_unfrozen = ref n in
    (* Freezes flow [i] at the rate already in [rates.(i)]: a float
       argument to a closure would be boxed on every freeze. *)
    let freeze i =
      let r = rates.(i) in
      frozen.(i) <- true;
      decr n_unfrozen;
      for k = fl_off.(i) to fl_off.(i + 1) - 1 do
        let li = fl.(k) in
        frozen_load.(li) <- frozen_load.(li) +. r;
        unfrozen.(li) <- unfrozen.(li) - 1
      done
    in
    for i = 0 to n - 1 do
      rates.(i) <- 0.0;
      frozen.(i) <- false;
      order.(i) <- i
    done;
    for i = 0 to n - 1 do
      if eff.(i) = 0.0 then freeze i
      else if fl_off.(i + 1) = fl_off.(i) then begin
        rates.(i) <- eff.(i);
        freeze i
      end
    done;
    sort_by_eff eff order 0 n;
    let ptr = ref 0 in
    while !n_unfrozen > 0 do
      let level = ref infinity and bott = ref (-1) in
      for li = 0 to nl - 1 do
        if unfrozen.(li) > 0 then begin
          let share =
            Float.max 0.0 (cap.(li) -. frozen_load.(li))
            /. float_of_int unfrozen.(li)
          in
          if share < !level then begin
            level := share;
            bott := li
          end
        end
      done;
      while !ptr < n && frozen.(order.(!ptr)) do incr ptr done;
      let dmin = eff.(!ptr) in
      if !bott < 0 || dmin <= !level then begin
        let threshold = if !bott < 0 then dmin else !level in
        let continue = ref true in
        while !continue && !ptr < n do
          let i = order.(!ptr) in
          if frozen.(i) then incr ptr
          else if eff.(!ptr) <= threshold then begin
            rates.(i) <- eff.(!ptr);
            freeze i;
            incr ptr
          end
          else continue := false
        done
      end
      else begin
        let b = !bott in
        levels.(b) <- !level;
        for k = w.lm_off.(b) to w.lm_off.(b + 1) - 1 do
          let i = w.lm.(k) in
          if not frozen.(i) then begin
            rates.(i) <- !level;
            freeze i
          end
        done
      end
    done

  let add_insolve t lid =
    if t.insolve.(lid) <> t.epoch then begin
      let w = t.ws in
      t.insolve.(lid) <- t.epoch;
      if w.n_insolve = Array.length w.insolve_links then
        w.insolve_links <- grow w.insolve_links (w.n_insolve + 1) 0;
      w.insolve_links.(w.n_insolve) <- lid;
      w.n_insolve <- w.n_insolve + 1
    end

  let rec add_insolve_all t = function
    | [] -> ()
    | lid :: rest ->
        add_insolve t lid;
        add_insolve_all t rest

  (* Marks flow [s] in scope; its links join the in-solve set. *)
  let enter_scope t s =
    t.scope.(s) <- t.epoch;
    add_insolve_all t t.flinks.(s)

  (* Appends a flow's dense links to [w.fl], numbering links on first
     reference. A clamped flow ([scoped] false) keeps only its in-solve
     links. [w.lid_of] has room for every in-solve link. *)
  let rec lay_links t w ~scoped = function
    | [] -> ()
    | lid :: rest ->
        if scoped || t.insolve.(lid) = t.epoch then begin
          if t.dense_round.(lid) <> t.round then begin
            t.dense_round.(lid) <- t.round;
            t.dense.(lid) <- w.nl;
            w.lid_of.(w.nl) <- lid;
            w.nl <- w.nl + 1
          end;
          if w.nfl = Array.length w.fl then w.fl <- grow w.fl (w.nfl + 1) 0;
          w.fl.(w.nfl) <- t.dense.(lid);
          w.nfl <- w.nfl + 1
        end;
        lay_links t w ~scoped rest

  (* Sorts the scope [sol.(0 .. ns-1)] by fid. *)
  let sort_scope t ns =
    let w = t.ws in
    reserve w ns;
    for i = 0 to ns - 1 do
      let s = w.sol.(i) in
      w.key.(i) <- t.fid.(s);
      w.idx.(i) <- s
    done;
    sort_keys w ns;
    for i = 0 to ns - 1 do
      w.sol.(i) <- w.idx.(i)
    done

  (* Lays out one round over the fid-sorted scope [sol.(0 .. ns-1)]:
     appends the clamped flows, numbers the dense links and fills the
     flat link and member lists. Returns [(n, nl)]. On return
     [idx.(0 .. n-ns-1)] holds the clamped slots in fid order. *)
  let layout t ns =
    let w = t.ws and epoch = t.epoch and round = t.round in
    (* Every other member of an in-solve link is clamped at its
       previous rate. Gather their fids and slots, sort by fid, then
       append the slots after the scope. *)
    let nc = ref 0 in
    for k = 0 to w.n_insolve - 1 do
      let lid = w.insolve_links.(k) in
      let mem = t.members.(lid) in
      for j = 0 to t.n_members.(lid) - 1 do
        let s = mem.(j) in
        if t.scope.(s) <> epoch && t.clamped.(s) <> round then begin
          t.clamped.(s) <- round;
          if !nc = Array.length w.key then reserve w (!nc + 1);
          w.key.(!nc) <- t.fid.(s);
          w.idx.(!nc) <- s;
          incr nc
        end
      done
    done;
    let nc = !nc in
    sort_keys w nc;
    let n = ns + nc in
    if n > Array.length w.sol then w.sol <- grow w.sol n 0;
    for i = 0 to nc - 1 do
      w.sol.(ns + i) <- w.idx.(i)
    done;
    (* Each group of arrays grows together, to one length. *)
    if n + 1 > Array.length w.fl_off then begin
      let c = max (n + 1) (2 * Array.length w.fl_off) in
      w.eff <- resize w.eff c 0.0;
      w.rates <- resize w.rates c 0.0;
      w.order <- resize w.order c 0;
      w.frozen <- resize w.frozen c false;
      w.fl_off <- resize w.fl_off c 0
    end;
    (* Dense links are in-solve links, so [n_insolve] bounds them. *)
    if w.n_insolve + 1 > Array.length w.lm_off then begin
      let c = max (w.n_insolve + 1) (2 * Array.length w.lm_off) in
      w.lid_of <- resize w.lid_of c 0;
      w.cap <- resize w.cap c 0.0;
      w.levels <- resize w.levels c 0.0;
      w.frozen_load <- resize w.frozen_load c 0.0;
      w.unfrozen <- resize w.unfrozen c 0;
      w.lm_off <- resize w.lm_off c 0
    end;
    (* Dense link ids in first-reference order over the flows. Clamped
       flows keep only their in-solve links: at a fixpoint their rate
       is preserved, so their load on out-of-solve links is
       unchanged. *)
    w.nl <- 0;
    w.nfl <- 0;
    for i = 0 to n - 1 do
      let s = w.sol.(i) in
      let scoped = i < ns in
      w.eff.(i) <- (if scoped then t.demand.(s) else t.rate.(s));
      w.fl_off.(i) <- w.nfl;
      lay_links t w ~scoped t.flinks.(s)
    done;
    let nl = w.nl and nfl = w.nfl in
    w.fl_off.(n) <- nfl;
    if nfl > Array.length w.lm then w.lm <- grow w.lm nfl 0;
    (* Member lists by counting sort: count into [lm_off], turn counts
       into range ends, then fill each range from the back. *)
    for li = 0 to nl - 1 do
      w.cap.(li) <- t.lcap.(w.lid_of.(li));
      w.lm_off.(li) <- 0
    done;
    for k = 0 to nfl - 1 do
      w.lm_off.(w.fl.(k)) <- w.lm_off.(w.fl.(k)) + 1
    done;
    for li = 1 to nl - 1 do
      w.lm_off.(li) <- w.lm_off.(li) + w.lm_off.(li - 1)
    done;
    for i = n - 1 downto 0 do
      for k = w.fl_off.(i) to w.fl_off.(i + 1) - 1 do
        let li = w.fl.(k) in
        w.lm_off.(li) <- w.lm_off.(li) - 1;
        w.lm.(w.lm_off.(li)) <- i
      done
    done;
    w.lm_off.(nl) <- nfl;
    (n, nl)

  (* Fixpoint checks: a clamped flow must reproduce its previous rate
     exactly, and no in-solve link's saturation level may change while
     it still has clamped members — either breach means the bottleneck
     structure shifted, so the breached flows are marked promoted.
     Returns how many were. *)
  let mark_promotions t ns n nl =
    let w = t.ws and epoch = t.epoch and round = t.round in
    let count = ref 0 in
    let promote s =
      if t.promoted.(s) <> round then begin
        t.promoted.(s) <- round;
        incr count
      end
    in
    for i = ns to n - 1 do
      let s = w.sol.(i) in
      if w.rates.(i) <> t.rate.(s) then promote s
    done;
    for li = 0 to nl - 1 do
      let lid = w.lid_of.(li) in
      if w.levels.(li) <> t.level.(lid) then begin
        let mem = t.members.(lid) in
        for j = 0 to t.n_members.(lid) - 1 do
          let s = mem.(j) in
          if t.scope.(s) <> epoch then promote s
        done
      end
    done;
    !count

  (* Merges the [p] promoted flows into the scope [sol.(0 .. ns-1)] and
     enters them into it. They are all clamped, so they already run in
     fid order through [idx]; the merge walks both runs from the back,
     leaving the scope slots below the first promoted fid in place.
     Promoted slots are read from [idx], since the merge overwrites the
     clamped tail of [sol]. *)
  let merge_promoted t ns n p =
    let w = t.ws and round = t.round in
    let i = ref (ns - 1) and c = ref (n - ns - 1) and o = ref (ns + p - 1) in
    while !o > !i do
      let s = w.idx.(!c) in
      if t.promoted.(s) <> round then decr c
      else if !i >= 0 && t.fid.(w.sol.(!i)) > t.fid.(s) then begin
        w.sol.(!o) <- w.sol.(!i);
        decr i;
        decr o
      end
      else begin
        enter_scope t s;
        w.sol.(!o) <- s;
        decr c;
        decr o
      end
    done

  let commit t ns =
    let w = t.ws and round = t.round in
    for i = 0 to ns - 1 do
      let s = w.sol.(i) in
      t.rate.(s) <- w.rates.(i);
      set_state t s live
    done;
    for k = 0 to w.n_insolve - 1 do
      let lid = w.insolve_links.(k) in
      t.level.(lid) <-
        (if t.dense_round.(lid) = round then w.levels.(t.dense.(lid))
         else infinity);
      let n = t.n_members.(lid) in
      if n = 0 then drop_link t lid
      else begin
        (* exact member-rate sum in ascending fid order — the canonical
           order every solver freezes in — so the fast path's residual
           checks start from a reproducible baseline *)
        let mem = t.members.(lid) in
        let sum = ref 0.0 in
        for j = 0 to n - 1 do
          sum := !sum +. t.rate.(mem.(j))
        done;
        t.lload.(lid) <- !sum
      end
    done

  (* Enters the live seed flows into the scope [sol], from position
     [ns] on; returns the scope size. *)
  let rec seed_scope t ns = function
    | [] -> ns
    | s :: rest ->
        if has_state t s live && t.scope.(s) <> t.epoch then begin
          enter_scope t s;
          t.ws.sol.(ns) <- s;
          seed_scope t (ns + 1) rest
        end
        else seed_scope t ns rest

  let rec seed_links t = function
    | [] -> ()
    | lid :: rest ->
        if has_link t lid then add_insolve t lid;
        seed_links t rest

  let flush t =
    (* slots retired before the last flush are free from now on *)
    t.n_free <- t.n_cooling;
    t.n_cooling <- t.n_spare;
    let fast = t.fast_touched in
    t.fast_touched <- [];
    t.s_flows_touched <- t.s_flows_touched + t.pending_fast_flows;
    t.s_links_touched <- t.s_links_touched + t.pending_fast_links;
    t.pending_fast_flows <- 0;
    t.pending_fast_links <- 0;
    t.last_fast <- fast;
    t.last_scope <- 0;
    if t.seed_flows <> [] || t.seed_links <> [] then begin
      (* Scope flows are fully re-solved (all their links join the
         in-solve set); every other member of an in-solve link is
         clamped at its previous rate, behaving exactly like a
         demand-limited flow whose external bottleneck is untouched. *)
      let w = t.ws in
      t.epoch <- t.epoch + 1;
      w.n_insolve <- 0;
      let seeds = List.length t.seed_flows in
      if seeds > Array.length w.sol then w.sol <- grow w.sol seeds 0;
      let ns = ref (seed_scope t 0 t.seed_flows) in
      sort_scope t !ns;
      seed_links t t.seed_links;
      t.seed_flows <- [];
      t.seed_links <- [];
      let stable = ref false in
      let first = ref true in
      while not !stable do
        if not !first then t.s_expansions <- t.s_expansions + 1;
        first := false;
        t.round <- t.round + 1;
        let n, nl = layout t !ns in
        t.s_flows_touched <- t.s_flows_touched + n;
        t.s_links_touched <- t.s_links_touched + nl;
        waterfill w n nl;
        let promoted = mark_promotions t !ns n nl in
        if promoted = 0 then begin
          commit t !ns;
          t.last_fast <- List.rev fast;
          t.last_scope <- !ns;
          t.s_solves <- t.s_solves + 1;
          stable := true
        end
        else begin
          t.s_promotions <- t.s_promotions + promoted;
          merge_promoted t !ns n promoted;
          ns := !ns + promoted
        end
      done
    end
end
