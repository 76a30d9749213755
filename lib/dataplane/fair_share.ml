(* ------------------------------------------------------------------ *)
(* Delta solver: persistent bottleneck state, event-scoped resolves.  *)
(* ------------------------------------------------------------------ *)

module Delta = struct
  type dflow = {
    fid : int;
    demand : float;
    mutable flinks : int list;
    mutable rate : float;
    mutable pending : bool;
        (* waiting in [seed_flows] for a solve: [rate] is stale and is
           not counted in the [lload] of the current [flinks] *)
    mutable live : bool;  (* false once removed: a stale seed skips it *)
    mutable scope : int;  (* = the flush epoch while in the solve scope *)
    mutable clamped : int;  (* = the round stamp while clamped *)
    mutable promoted : int;  (* = the round stamp once promoted *)
  }

  type dlink = {
    lid : int;
    lcap : float;
    mutable level : float;
        (* water level at which the link last saturated as the selected
           bottleneck; [infinity] when its members all froze
           demand-limited (residual may still be zero). *)
    mutable lload : float;
        (* sum of member rates. Recomputed exactly (ascending fid
           order) whenever the link is in a solve; adjusted by the
           event's own exact delta on fast-path commits. Only ever
           compared against [lcap], never fed into rate arithmetic, so
           ulp-level reassociation drift is harmless: it can only flip
           a marginal fast/slow decision, and the slow path is always
           correct. *)
    mutable members : dflow array;  (* [0, n_members), ascending fid *)
    mutable n_members : int;
    mutable insolve : int;  (* = the flush epoch while in the solve *)
    mutable dense_round : int;  (* round stamp for which [dense] holds *)
    mutable dense : int;  (* index in the round's dense link numbering *)
  }

  type stats = {
    solves : int;
    events : int;
    flows_touched : int;
    links_touched : int;
    expansions : int;
    promotions : int;
  }

  (* Flush workspace, grown on demand and reused across flushes. A
     round's solve covers [n] flows ([sol]: scope first, then clamped)
     over [nl] dense links; per-flow link lists and per-link member
     lists are flat offset/index arrays. The sorts run on the unboxed
     key arrays and move records only once the order is known. *)
  type work = {
    mutable sol : dflow array;
    mutable key : int array;  (* fids to sort, carrying [idx] *)
    mutable idx : int array;
    mutable kbuf : int array;  (* merge buffers for [key] and [idx] *)
    mutable ibuf : int array;
    mutable runs : int array;  (* ascending-run starts during the sort *)
    mutable src_link : int array;
        (* clamped flow m is member [src_pos.(m)] of in-solve link
           [src_link.(m)] *)
    mutable src_pos : int array;
    mutable insolve_links : dlink array;
    mutable n_insolve : int;
    mutable lid_of : dlink array;  (* dense link -> link *)
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

  type t = {
    capacity : int -> float;
    dflows : dflow Itbl.t;
    mutable dlinks : dlink array;  (* by link id; [absent] when unused *)
    mutable seed_flows : dflow list;  (* dirtied since the last flush *)
    mutable seed_links : int list;
    mutable fast_touched : dflow list;
        (* flows committed by the fast path since the last flush,
           newest first *)
    mutable pending_fast_flows : int;
    mutable pending_fast_links : int;
        (* fast-path work, folded into the stats at the next flush so
           callers diffing stats around a solve see it *)
    mutable last_fast : dflow list;
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

  (* Placeholders for unused array slots; never mutated. *)
  let nobody =
    { fid = min_int; demand = 0.0; flinks = []; rate = 0.0; pending = false;
      live = false; scope = -1; clamped = -1; promoted = -1 }

  let absent =
    { lid = -1; lcap = 0.0; level = infinity; lload = 0.0; members = [||];
      n_members = 0; insolve = -1; dense_round = -1; dense = 0 }

  let create ~capacity () =
    {
      capacity;
      dflows = Itbl.create 1024;
      dlinks = Array.make 256 absent;
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
          src_link = [||];
          src_pos = [||];
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

  (* [a] with room for [n] elements, keeping its contents. *)
  let grow a n fill =
    let len = Array.length a in
    if n <= len then a
    else begin
      let b = Array.make (max n (2 * len)) fill in
      Array.blit a 0 b 0 len;
      b
    end

  (* --- link table and member vectors --- *)

  let find_link t lid =
    if lid >= 0 && lid < Array.length t.dlinks then t.dlinks.(lid) else absent

  let dlink t lid =
    let l = find_link t lid in
    if l != absent then l
    else begin
      if lid < 0 then invalid_arg "Fair_share.Delta: negative link id";
      let cap = t.capacity lid in
      if cap <= 0.0 then
        invalid_arg "Fair_share.Delta: non-positive capacity";
      t.dlinks <- grow t.dlinks (lid + 1) absent;
      let l =
        { lid; lcap = cap; level = infinity; lload = 0.0; members = [||];
          n_members = 0; insolve = -1; dense_round = -1; dense = 0 }
      in
      t.dlinks.(lid) <- l;
      l
    end

  let drop_link t l = t.dlinks.(l.lid) <- absent

  (* Every link of [links] exists afterwards; raises before any flow
     state changes when one has no valid capacity. *)
  let validate_links t links = List.iter (fun lid -> ignore (dlink t lid)) links

  (* First member position whose fid is >= [fid]. *)
  let member_pos l fid =
    let lo = ref 0 and hi = ref l.n_members in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if l.members.(mid).fid < fid then lo := mid + 1 else hi := mid
    done;
    !lo

  let add_member l f =
    let i = member_pos l f.fid in
    if i < l.n_members && l.members.(i).fid = f.fid then l.members.(i) <- f
    else begin
      l.members <- grow l.members (max 4 (l.n_members + 1)) nobody;
      Array.blit l.members i l.members (i + 1) (l.n_members - i);
      l.members.(i) <- f;
      l.n_members <- l.n_members + 1
    end

  let remove_member l fid =
    let i = member_pos l fid in
    if i < l.n_members && l.members.(i).fid = fid then begin
      Array.blit l.members (i + 1) l.members i (l.n_members - i - 1);
      l.n_members <- l.n_members - 1;
      l.members.(l.n_members) <- nobody
    end

  (* Fast paths: an event whose links all sit strictly below
     saturation (level = infinity, and any added load fits in the
     residual) cannot change the bottleneck set — the new/removed/
     rerouted flow is demand-limited and every other flow's rate is
     untouched, so the event commits in O(path) with no water-fill at
     all. This is the common case for real workloads, where most links
     run below capacity; the scoped solve in {!flush} only runs for
     events that actually move a bottleneck. *)

  let fast_commit t f ~links =
    t.fast_touched <- f :: t.fast_touched;
    t.pending_fast_flows <- t.pending_fast_flows + 1;
    t.pending_fast_links <- t.pending_fast_links + List.length links

  let add_flow t ~id ~demand ~links =
    if demand < 0.0 then
      invalid_arg "Fair_share.Delta.add_flow: negative demand";
    if Itbl.mem t.dflows id then
      invalid_arg "Fair_share.Delta.add_flow: duplicate id";
    validate_links t links;
    let f =
      { fid = id; demand; flinks = links; rate = 0.0; pending = false;
        live = true; scope = -1; clamped = -1; promoted = -1 }
    in
    Itbl.add t.dflows id f;
    List.iter (fun lid -> add_member t.dlinks.(lid) f) links;
    t.s_events <- t.s_events + 1;
    let absorbed =
      List.for_all
        (fun lid ->
          let l = t.dlinks.(lid) in
          l.level = infinity && l.lload +. demand <= l.lcap)
        links
    in
    if absorbed then begin
      f.rate <- demand;
      List.iter
        (fun lid ->
          let l = t.dlinks.(lid) in
          l.lload <- l.lload +. demand)
        links;
      fast_commit t f ~links
    end
    else begin
      f.pending <- true;
      t.seed_flows <- f :: t.seed_flows
    end

  let unsaturated t links =
    List.for_all (fun lid -> (find_link t lid).level = infinity) links

  let remove_flow t ~id =
    match Itbl.find_opt t.dflows id with
    | None -> ()
    | Some f ->
        Itbl.remove t.dflows id;
        f.live <- false;
        (* A pending flow never entered a committed solution: dropping
           it moves no one's rate, and its stale rate was never added
           to its links' load. *)
        let unsaturated = f.pending || unsaturated t f.flinks in
        List.iter
          (fun lid ->
            let l = find_link t lid in
            if l != absent then begin
              remove_member l id;
              if unsaturated then begin
                if not f.pending then l.lload <- l.lload -. f.rate;
                if l.n_members = 0 then drop_link t l
              end
            end)
          f.flinks;
        t.s_events <- t.s_events + 1;
        if unsaturated then
          (* departure from links that never bind relaxes every
             constraint without moving a level: nobody's rate changes *)
          t.pending_fast_flows <- t.pending_fast_flows + 1
        else t.seed_links <- List.rev_append f.flinks t.seed_links

  let set_links t ~id ~links =
    match Itbl.find_opt t.dflows id with
    | None -> invalid_arg "Fair_share.Delta.set_links: unknown flow"
    | Some f ->
        validate_links t links;
        let old_links = f.flinks in
        let old_unsaturated =
          (not f.pending) && f.rate = f.demand && unsaturated t old_links
        in
        List.iter
          (fun lid ->
            let l = find_link t lid in
            if l != absent then remove_member l id)
          old_links;
        f.flinks <- links;
        List.iter (fun lid -> add_member t.dlinks.(lid) f) links;
        t.s_events <- t.s_events + 1;
        let absorbed =
          old_unsaturated
          && List.for_all
               (fun lid ->
                 let l = t.dlinks.(lid) in
                 l.level = infinity && l.lload +. f.rate <= l.lcap)
               links
        in
        if absorbed then begin
          List.iter
            (fun lid ->
              let l = find_link t lid in
              if l != absent then begin
                l.lload <- l.lload -. f.rate;
                if l.n_members = 0 then drop_link t l
              end)
            old_links;
          List.iter
            (fun lid ->
              let l = t.dlinks.(lid) in
              l.lload <- l.lload +. f.rate)
            links;
          fast_commit t f ~links
        end
        else begin
          f.pending <- true;
          t.seed_links <- List.rev_append old_links t.seed_links;
          t.seed_flows <- f :: t.seed_flows
        end

  let rate t ~id =
    match Itbl.find_opt t.dflows id with Some f -> f.rate | None -> 0.0

  (* A flow removed since its commit reads rate 0. *)
  let iter_touched t visit =
    let visit_flow f = if f.live then visit f.fid f.rate else visit f.fid 0.0 in
    List.iter visit_flow t.last_fast;
    for i = 0 to t.last_scope - 1 do
      visit_flow t.ws.sol.(i)
    done

  let fold_link t ~link f init =
    let l = find_link t link in
    let acc = ref init in
    for j = 0 to l.n_members - 1 do
      let m = l.members.(j) in
      acc := f m.fid m.rate !acc
    done;
    !acc

  let flow_count t = Itbl.length t.dflows

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

  (* Room for [n] entries in the sort keys and the clamped gather. The
     four arrays always grow together, so they keep one length. *)
  let reserve w n =
    if n > Array.length w.key then begin
      w.key <- grow w.key n 0;
      w.idx <- grow w.idx n 0;
      w.src_link <- grow w.src_link n 0;
      w.src_pos <- grow w.src_pos n 0
    end

  (* Sorts [w.key.(0 .. n-1)] ascending, carrying [w.idx] along (keys
     are unique fids). A natural merge sort: the runs already ascending
     in the input (the clamped gather is one per member vector) are
     merged pairwise through [kbuf]/[ibuf] until one is left. *)
  let sort_keys w n =
    w.kbuf <- grow w.kbuf n 0;
    w.ibuf <- grow w.ibuf n 0;
    w.runs <- grow w.runs (n + 1) 0;
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
      Array.blit !key 0 w.key 0 n;
      Array.blit !idx 0 w.idx 0 n
    end

  (* Sorts [key.(lo .. hi-1)] ascending, carrying [order] along: a
     quicksort with a three-way partition, so the few distinct demands
     and clamped rates of a real scope cost one pass each. Any order
     among equal keys is fine: freezes of equal value commute. *)
  let rec sort_by_eff (key : float array) (order : int array) lo hi =
    let swap i j =
      let k = key.(i) and o = order.(i) in
      key.(i) <- key.(j);
      order.(i) <- order.(j);
      key.(j) <- k;
      order.(j) <- o
    in
    if hi - lo <= 16 then
      for i = lo + 1 to hi - 1 do
        let j = ref i in
        while !j > lo && key.(!j) < key.(!j - 1) do
          swap !j (!j - 1);
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
          swap !lt !i;
          incr lt;
          incr i
        end
        else if k > p then begin
          swap !i !gt;
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
    let freeze i r =
      rates.(i) <- r;
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
      if eff.(i) = 0.0 then freeze i 0.0
      else if fl_off.(i + 1) = fl_off.(i) then freeze i eff.(i)
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
            freeze i eff.(!ptr);
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
          if not frozen.(i) then freeze i !level
        done
      end
    done

  let add_insolve t (l : dlink) =
    if l.insolve <> t.epoch then begin
      let w = t.ws in
      l.insolve <- t.epoch;
      w.insolve_links <- grow w.insolve_links (w.n_insolve + 1) absent;
      w.insolve_links.(w.n_insolve) <- l;
      w.n_insolve <- w.n_insolve + 1
    end

  let rec add_insolve_all t = function
    | [] -> ()
    | lid :: rest ->
        add_insolve t t.dlinks.(lid);
        add_insolve_all t rest

  (* Marks [f] in scope; its links join the in-solve set. *)
  let enter_scope t (f : dflow) =
    f.scope <- t.epoch;
    add_insolve_all t f.flinks

  (* Appends flow [f]'s dense links to [w.fl], numbering links on first
     reference. A clamped flow ([scoped] false) keeps only its in-solve
     links. *)
  let rec lay_links t w ~scoped = function
    | [] -> ()
    | lid :: rest ->
        let l = t.dlinks.(lid) in
        if scoped || l.insolve = t.epoch then begin
          if l.dense_round <> t.round then begin
            l.dense_round <- t.round;
            l.dense <- w.nl;
            w.lid_of <- grow w.lid_of (w.nl + 1) absent;
            w.lid_of.(w.nl) <- l;
            w.nl <- w.nl + 1
          end;
          w.fl <- grow w.fl (w.nfl + 1) 0;
          w.fl.(w.nfl) <- l.dense;
          w.nfl <- w.nfl + 1
        end;
        lay_links t w ~scoped rest

  (* Sorts the scope [sol.(0 .. ns-1)] by fid: sorts the keys, then
     applies the permutation cycle by cycle, so each record moves once. *)
  let sort_scope w ns =
    reserve w ns;
    for i = 0 to ns - 1 do
      w.key.(i) <- w.sol.(i).fid;
      w.idx.(i) <- i
    done;
    sort_keys w ns;
    for s = 0 to ns - 1 do
      if w.idx.(s) <> s then begin
        let first = w.sol.(s) in
        let cur = ref s in
        while w.idx.(!cur) <> s do
          let next = w.idx.(!cur) in
          w.sol.(!cur) <- w.sol.(next);
          w.idx.(!cur) <- !cur;
          cur := next
        done;
        w.sol.(!cur) <- first;
        w.idx.(!cur) <- !cur
      end
    done

  (* The clamped flow gathered [m]th by this round's {!layout}. *)
  let clamped_flow w m =
    w.insolve_links.(w.src_link.(m)).members.(w.src_pos.(m))

  (* Lays out one round over the fid-sorted scope [sol.(0 .. ns-1)]:
     appends the clamped flows, numbers the dense links and fills the
     flat link and member lists. Returns [(n, nl)]. *)
  let layout t ns =
    let w = t.ws and epoch = t.epoch and round = t.round in
    (* Every other member of an in-solve link is clamped at its
       previous rate. Gather their fids and where they sit, sort the
       fids, then write each record once, in fid order, after the
       scope. *)
    let nc = ref 0 in
    for k = 0 to w.n_insolve - 1 do
      let l = w.insolve_links.(k) in
      for j = 0 to l.n_members - 1 do
        let f = l.members.(j) in
        if f.scope <> epoch && f.clamped <> round then begin
          f.clamped <- round;
          reserve w (!nc + 1);
          w.key.(!nc) <- f.fid;
          w.idx.(!nc) <- !nc;
          w.src_link.(!nc) <- k;
          w.src_pos.(!nc) <- j;
          incr nc
        end
      done
    done;
    let nc = !nc in
    sort_keys w nc;
    let n = ns + nc in
    w.sol <- grow w.sol n nobody;
    for i = 0 to nc - 1 do
      w.sol.(ns + i) <- clamped_flow w w.idx.(i)
    done;
    w.eff <- grow w.eff n 0.0;
    w.rates <- grow w.rates n 0.0;
    w.order <- grow w.order n 0;
    w.frozen <- grow w.frozen n false;
    w.fl_off <- grow w.fl_off (n + 1) 0;
    (* Dense link ids in first-reference order over the flows. Clamped
       flows keep only their in-solve links: at a fixpoint their rate
       is preserved, so their load on out-of-solve links is
       unchanged. *)
    w.nl <- 0;
    w.nfl <- 0;
    for i = 0 to n - 1 do
      let f = w.sol.(i) in
      let scoped = i < ns in
      w.eff.(i) <- (if scoped then f.demand else f.rate);
      w.fl_off.(i) <- w.nfl;
      lay_links t w ~scoped f.flinks
    done;
    let nl = w.nl and nfl = w.nfl in
    w.fl_off.(n) <- nfl;
    w.cap <- grow w.cap nl 0.0;
    w.levels <- grow w.levels nl 0.0;
    w.frozen_load <- grow w.frozen_load nl 0.0;
    w.unfrozen <- grow w.unfrozen nl 0;
    w.lm_off <- grow w.lm_off (nl + 1) 0;
    w.lm <- grow w.lm nfl 0;
    (* Member lists by counting sort: count into [lm_off], turn counts
       into range ends, then fill each range from the back. *)
    for li = 0 to nl - 1 do
      w.cap.(li) <- w.lid_of.(li).lcap;
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
    let promote (f : dflow) =
      if f.promoted <> round then begin
        f.promoted <- round;
        incr count
      end
    in
    for i = ns to n - 1 do
      if w.rates.(i) <> w.sol.(i).rate then promote w.sol.(i)
    done;
    for li = 0 to nl - 1 do
      let l = w.lid_of.(li) in
      if w.levels.(li) <> l.level then
        for j = 0 to l.n_members - 1 do
          let f = l.members.(j) in
          if f.scope <> epoch then promote f
        done
    done;
    !count

  (* Merges the [p] promoted flows into the scope [sol.(0 .. ns-1)] and
     enters them into it. They are all clamped, so they already run in
     fid order through the sorted gather; the merge walks both runs
     from the back, leaving the scope records below the first promoted
     fid in place. Promoted records are read back through the gather,
     since the merge overwrites the clamped tail. *)
  let merge_promoted t ns n p =
    let w = t.ws and round = t.round in
    let i = ref (ns - 1) and c = ref (n - ns - 1) and o = ref (ns + p - 1) in
    while !o > !i do
      let f = clamped_flow w w.idx.(!c) in
      if f.promoted <> round then decr c
      else if !i >= 0 && w.sol.(!i).fid > f.fid then begin
        w.sol.(!o) <- w.sol.(!i);
        decr i;
        decr o
      end
      else begin
        enter_scope t f;
        w.sol.(!o) <- f;
        decr c;
        decr o
      end
    done

  let commit t ns =
    let w = t.ws and round = t.round in
    for i = 0 to ns - 1 do
      let f = w.sol.(i) in
      f.rate <- w.rates.(i);
      f.pending <- false
    done;
    for k = 0 to w.n_insolve - 1 do
      let l = w.insolve_links.(k) in
      l.level <-
        (if l.dense_round = round then w.levels.(l.dense) else infinity);
      if l.n_members = 0 then drop_link t l
      else begin
        (* exact member-rate sum in ascending fid order — the canonical
           order every solver freezes in — so the fast path's residual
           checks start from a reproducible baseline *)
        let sum = ref 0.0 in
        for j = 0 to l.n_members - 1 do
          sum := !sum +. l.members.(j).rate
        done;
        l.lload <- !sum
      end
    done

  let flush t =
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
      let ns = ref 0 in
      List.iter
        (fun (f : dflow) ->
          if f.live && f.scope <> t.epoch then begin
            enter_scope t f;
            w.sol <- grow w.sol (!ns + 1) nobody;
            w.sol.(!ns) <- f;
            incr ns
          end)
        t.seed_flows;
      sort_scope w !ns;
      List.iter
        (fun lid ->
          let l = find_link t lid in
          if l != absent then add_insolve t l)
        t.seed_links;
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
