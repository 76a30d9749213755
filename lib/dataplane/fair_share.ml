type flow_input = { demand : float; links : int list }

(* ------------------------------------------------------------------ *)
(* Reference implementation: textbook progressive filling.            *)
(* Kept verbatim for differential testing of the production solver.   *)
(* ------------------------------------------------------------------ *)

(* Per-link bookkeeping, maintained incrementally as flows freeze so
   each progressive-filling round is O(#links + #flows). *)
type link_state = {
  cap : float;
  mutable frozen_load : float;
  mutable unfrozen : int;
}

let compute_reference ~capacity flows =
  let n = Array.length flows in
  let rates = Array.make n 0.0 in
  let frozen = Array.make n false in
  let links : (int, link_state) Hashtbl.t = Hashtbl.create 64 in
  let link_state l =
    match Hashtbl.find_opt links l with
    | Some s -> s
    | None ->
        let cap = capacity l in
        if cap <= 0.0 then
          invalid_arg "Fair_share.compute: non-positive capacity";
        let s = { cap; frozen_load = 0.0; unfrozen = 0 } in
        Hashtbl.add links l s;
        s
  in
  Array.iter
    (fun f ->
      if f.demand < 0.0 then invalid_arg "Fair_share.compute: negative demand";
      List.iter (fun l -> (link_state l).unfrozen <- (link_state l).unfrozen + 1) f.links)
    flows;
  let n_unfrozen = ref n in
  let freeze i rate =
    rates.(i) <- rate;
    frozen.(i) <- true;
    decr n_unfrozen;
    List.iter
      (fun l ->
        let s = link_state l in
        s.frozen_load <- s.frozen_load +. rate;
        s.unfrozen <- s.unfrozen - 1)
      flows.(i).links
  in
  (* Zero-demand and pathless flows are trivially assigned. *)
  Array.iteri
    (fun i f ->
      if f.demand = 0.0 then freeze i 0.0
      else if f.links = [] then freeze i f.demand)
    flows;
  while !n_unfrozen > 0 do
    let link_min = ref None in
    Hashtbl.iter
      (fun l s ->
        if s.unfrozen > 0 then begin
          let share =
            Float.max 0.0 (s.cap -. s.frozen_load) /. float_of_int s.unfrozen
          in
          match !link_min with
          | None -> link_min := Some (l, share)
          | Some (_, best) -> if share < best then link_min := Some (l, share)
        end)
      links;
    let demand_min = ref None in
    Array.iteri
      (fun i f ->
        if not frozen.(i) then
          match !demand_min with
          | None -> demand_min := Some f.demand
          | Some d -> if f.demand < d then demand_min := Some f.demand)
      flows;
    let freeze_at_demand d =
      Array.iteri
        (fun i f -> if (not frozen.(i)) && f.demand = d then freeze i d)
        flows
    in
    match (!link_min, !demand_min) with
    | None, None -> assert false (* n_unfrozen > 0 implies a min demand *)
    | None, Some d -> freeze_at_demand d
    | Some (_, s), Some d when d <= s -> freeze_at_demand d
    | Some (bottleneck, s), _ ->
        Array.iteri
          (fun i f ->
            if (not frozen.(i)) && List.memq bottleneck f.links then freeze i s)
          flows
  done;
  rates

(* Heapsort over [order.(0..n-1)] keyed by demand: demands repeat
   heavily (uniform TE workloads), and an in-place sort keeps the
   water fill's ordering step allocation-free. *)
let sort_by_demand order n key =
  let lt i j = key order.(i) < key order.(j) in
  let swap i j =
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  in
  let rec sift_down i len =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let largest = ref i in
    if l < len && lt !largest l then largest := l;
    if r < len && lt !largest r then largest := r;
    if !largest <> i then begin
      swap i !largest;
      sift_down !largest len
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift_down i n
  done;
  for last = n - 1 downto 1 do
    swap 0 last;
    sift_down 0 last
  done

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
  }

  type dlink = {
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
    lmembers : (int, dflow) Hashtbl.t;
  }

  type stats = {
    solves : int;
    events : int;
    flows_touched : int;
    links_touched : int;
    expansions : int;
    promotions : int;
  }

  type t = {
    capacity : int -> float;
    dflows : (int, dflow) Hashtbl.t;
    dlinks : (int, dlink) Hashtbl.t;
    mutable seed_flows : int list;  (* dirtied since the last flush *)
    mutable seed_links : int list;
    mutable fast_touched : int list;
        (* flows committed by the fast path since the last flush *)
    mutable pending_fast_flows : int;
    mutable pending_fast_links : int;
        (* fast-path work, folded into the stats at the next flush so
           callers diffing stats around a solve see it *)
    mutable last_touched : int list;
    mutable s_solves : int;
    mutable s_events : int;
    mutable s_flows_touched : int;
    mutable s_links_touched : int;
    mutable s_expansions : int;
    mutable s_promotions : int;
  }

  let create ~capacity () =
    {
      capacity;
      dflows = Hashtbl.create 1024;
      dlinks = Hashtbl.create 256;
      seed_flows = [];
      seed_links = [];
      fast_touched = [];
      pending_fast_flows = 0;
      pending_fast_links = 0;
      last_touched = [];
      s_solves = 0;
      s_events = 0;
      s_flows_touched = 0;
      s_links_touched = 0;
      s_expansions = 0;
      s_promotions = 0;
    }

  let dlink t lid =
    match Hashtbl.find_opt t.dlinks lid with
    | Some l -> l
    | None ->
        let cap = t.capacity lid in
        if cap <= 0.0 then
          invalid_arg "Fair_share.Delta: non-positive capacity";
        let l =
          { lcap = cap; level = infinity; lload = 0.0;
            lmembers = Hashtbl.create 8 }
        in
        Hashtbl.add t.dlinks lid l;
        l

  (* Fast paths: an event whose links all sit strictly below
     saturation (level = infinity, and any added load fits in the
     residual) cannot change the bottleneck set — the new/removed/
     rerouted flow is demand-limited and every other flow's rate is
     untouched, so the event commits in O(path) with no water-fill at
     all. This is the common case for real workloads, where most links
     run below capacity; the scoped solve in {!flush} only runs for
     events that actually move a bottleneck. *)

  let fast_commit t ~id ~links =
    t.fast_touched <- id :: t.fast_touched;
    t.pending_fast_flows <- t.pending_fast_flows + 1;
    t.pending_fast_links <- t.pending_fast_links + List.length links

  let add_flow t ~id ~demand ~links =
    if demand < 0.0 then
      invalid_arg "Fair_share.Delta.add_flow: negative demand";
    if Hashtbl.mem t.dflows id then
      invalid_arg "Fair_share.Delta.add_flow: duplicate id";
    let f = { fid = id; demand; flinks = links; rate = 0.0; pending = false } in
    Hashtbl.add t.dflows id f;
    List.iter (fun lid -> Hashtbl.replace (dlink t lid).lmembers id f) links;
    t.s_events <- t.s_events + 1;
    let absorbed =
      List.for_all
        (fun lid ->
          let l = dlink t lid in
          l.level = infinity && l.lload +. demand <= l.lcap)
        links
    in
    if absorbed then begin
      f.rate <- demand;
      List.iter
        (fun lid ->
          let l = dlink t lid in
          l.lload <- l.lload +. demand)
        links;
      fast_commit t ~id ~links
    end
    else begin
      f.pending <- true;
      t.seed_flows <- id :: t.seed_flows
    end

  let remove_flow t ~id =
    match Hashtbl.find_opt t.dflows id with
    | None -> ()
    | Some f ->
        Hashtbl.remove t.dflows id;
        (* A pending flow never entered a committed solution: dropping
           it moves no one's rate, and its stale rate was never added
           to its links' load. *)
        let unsaturated =
          f.pending
          || List.for_all
               (fun lid ->
                 match Hashtbl.find_opt t.dlinks lid with
                 | None -> true
                 | Some l -> l.level = infinity)
               f.flinks
        in
        List.iter
          (fun lid ->
            match Hashtbl.find_opt t.dlinks lid with
            | None -> ()
            | Some l ->
                Hashtbl.remove l.lmembers id;
                if unsaturated then begin
                  if not f.pending then l.lload <- l.lload -. f.rate;
                  if Hashtbl.length l.lmembers = 0 then
                    Hashtbl.remove t.dlinks lid
                end)
          f.flinks;
        t.s_events <- t.s_events + 1;
        if unsaturated then
          (* departure from links that never bind relaxes every
             constraint without moving a level: nobody's rate changes *)
          t.pending_fast_flows <- t.pending_fast_flows + 1
        else t.seed_links <- List.rev_append f.flinks t.seed_links

  let set_links t ~id ~links =
    match Hashtbl.find_opt t.dflows id with
    | None -> invalid_arg "Fair_share.Delta.set_links: unknown flow"
    | Some f ->
        let old_links = f.flinks in
        let old_unsaturated =
          (not f.pending) && f.rate = f.demand
          && List.for_all
               (fun lid ->
                 match Hashtbl.find_opt t.dlinks lid with
                 | None -> true
                 | Some l -> l.level = infinity)
               old_links
        in
        List.iter
          (fun lid ->
            match Hashtbl.find_opt t.dlinks lid with
            | None -> ()
            | Some l -> Hashtbl.remove l.lmembers id)
          old_links;
        f.flinks <- links;
        List.iter (fun lid -> Hashtbl.replace (dlink t lid).lmembers id f) links;
        t.s_events <- t.s_events + 1;
        let absorbed =
          old_unsaturated
          && List.for_all
               (fun lid ->
                 let l = dlink t lid in
                 l.level = infinity && l.lload +. f.rate <= l.lcap)
               links
        in
        if absorbed then begin
          List.iter
            (fun lid ->
              match Hashtbl.find_opt t.dlinks lid with
              | None -> ()
              | Some l ->
                  l.lload <- l.lload -. f.rate;
                  if Hashtbl.length l.lmembers = 0 then
                    Hashtbl.remove t.dlinks lid)
            old_links;
          List.iter
            (fun lid ->
              let l = dlink t lid in
              l.lload <- l.lload +. f.rate)
            links;
          fast_commit t ~id ~links
        end
        else begin
          f.pending <- true;
          t.seed_links <- List.rev_append old_links t.seed_links;
          t.seed_flows <- id :: t.seed_flows
        end

  let rate t ~id =
    match Hashtbl.find_opt t.dflows id with Some f -> f.rate | None -> 0.0

  let touched t = t.last_touched
  let flow_count t = Hashtbl.length t.dflows

  let stats t =
    {
      solves = t.s_solves;
      events = t.s_events;
      flows_touched = t.s_flows_touched;
      links_touched = t.s_links_touched;
      expansions = t.s_expansions;
      promotions = t.s_promotions;
    }

  (* One scoped water-fill over [n] flows with effective demands [eff]
     and dense link lists [fl]. Returns rates and per-dense-link
     saturation levels ([infinity] = never selected as bottleneck).
     Sorted-demand water filling with a demand-wins tie rule: each
     round either saturates one bottleneck link or retires the whole
     batch of demand-limited flows below the current water level, so
     the round count is bounded by [#links + #distinct-demand-batches]
     rather than [#flows]. Every freeze happens in ascending rate
     order, so a
     link's frozen load is a canonical ascending-order sum of its
     members' rates — which is what makes levels comparable across
     scoped and full solves. *)
  let waterfill n eff fl n_links cap lmem =
    let rates = Array.make n 0.0 in
    let levels = Array.make (max 1 n_links) infinity in
    let frozen = Array.make n false in
    let frozen_load = Array.make (max 1 n_links) 0.0 in
    let unfrozen = Array.make (max 1 n_links) 0 in
    Array.iter
      (Array.iter (fun li -> unfrozen.(li) <- unfrozen.(li) + 1))
      fl;
    let n_unfrozen = ref n in
    let freeze i r =
      rates.(i) <- r;
      frozen.(i) <- true;
      decr n_unfrozen;
      Array.iter
        (fun li ->
          frozen_load.(li) <- frozen_load.(li) +. r;
          unfrozen.(li) <- unfrozen.(li) - 1)
        fl.(i)
    in
    for i = 0 to n - 1 do
      if eff.(i) = 0.0 then freeze i 0.0
      else if Array.length fl.(i) = 0 then freeze i eff.(i)
    done;
    let order = Array.init n (fun i -> i) in
    sort_by_demand order n (fun i -> eff.(i));
    let ptr = ref 0 in
    while !n_unfrozen > 0 do
      let level = ref infinity and bott = ref (-1) in
      for li = 0 to n_links - 1 do
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
      let dmin = eff.(order.(!ptr)) in
      if !bott < 0 || dmin <= !level then begin
        let threshold = if !bott < 0 then dmin else !level in
        let continue = ref true in
        while !continue && !ptr < n do
          let i = order.(!ptr) in
          if frozen.(i) then incr ptr
          else if eff.(i) <= threshold then begin
            freeze i eff.(i);
            incr ptr
          end
          else continue := false
        done
      end
      else begin
        let b = !bott in
        levels.(b) <- !level;
        List.iter (fun i -> if not frozen.(i) then freeze i !level) lmem.(b)
      end
    done;
    (rates, levels)

  let flush t =
    let fast = t.fast_touched in
    t.fast_touched <- [];
    t.s_flows_touched <- t.s_flows_touched + t.pending_fast_flows;
    t.s_links_touched <- t.s_links_touched + t.pending_fast_links;
    t.pending_fast_flows <- 0;
    t.pending_fast_links <- 0;
    if t.seed_flows = [] && t.seed_links = [] then t.last_touched <- fast
    else begin
      (* Scope flows are fully re-solved (all their links join the
         in-solve set); every other member of an in-solve link is
         clamped at its previous rate, behaving exactly like a
         demand-limited flow whose external bottleneck is untouched. *)
      let scope : (int, dflow) Hashtbl.t = Hashtbl.create 64 in
      let insolve : (int, dlink) Hashtbl.t = Hashtbl.create 64 in
      let rec add_scope (f : dflow) =
        if not (Hashtbl.mem scope f.fid) then begin
          Hashtbl.add scope f.fid f;
          List.iter add_insolve f.flinks
        end
      and add_insolve lid =
        if not (Hashtbl.mem insolve lid) then
          Hashtbl.add insolve lid (dlink t lid)
      in
      List.iter
        (fun fid -> Option.iter add_scope (Hashtbl.find_opt t.dflows fid))
        t.seed_flows;
      List.iter add_insolve t.seed_links;
      t.seed_flows <- [];
      t.seed_links <- [];
      let stable = ref false in
      let first = ref true in
      while not !stable do
        if not !first then t.s_expansions <- t.s_expansions + 1;
        first := false;
        let clamped : (int, dflow) Hashtbl.t = Hashtbl.create 64 in
        Hashtbl.iter
          (fun _ (l : dlink) ->
            Hashtbl.iter
              (fun fid f ->
                if not (Hashtbl.mem scope fid) then
                  Hashtbl.replace clamped fid f)
              l.lmembers)
          insolve;
        (* Canonical flow order (scope first, then clamped, both by id)
           keeps the solve deterministic regardless of hash order. *)
        let sorted tbl =
          let a = Array.make (Hashtbl.length tbl) None in
          let i = ref 0 in
          Hashtbl.iter
            (fun _ f ->
              a.(!i) <- Some f;
              incr i)
            tbl;
          let a = Array.map Option.get a in
          Array.sort (fun (a : dflow) b -> Int.compare a.fid b.fid) a;
          a
        in
        let sf = sorted scope and cf = sorted clamped in
        let ns = Array.length sf in
        let n = ns + Array.length cf in
        let flows =
          Array.init n (fun i -> if i < ns then sf.(i) else cf.(i - ns))
        in
        let eff =
          Array.init n (fun i ->
              if i < ns then flows.(i).demand else flows.(i).rate)
        in
        (* Dense link ids over the in-solve set, in canonical
           first-reference order. Clamped flows keep only their
           in-solve links: at a fixpoint their rate is preserved, so
           their load on out-of-solve links is unchanged. *)
        let lidx : (int, int) Hashtbl.t = Hashtbl.create 64 in
        let lids = ref [] and n_links = ref 0 in
        let dense lid =
          match Hashtbl.find_opt lidx lid with
          | Some li -> li
          | None ->
              let li = !n_links in
              incr n_links;
              lids := lid :: !lids;
              Hashtbl.add lidx lid li;
              li
        in
        let fl =
          Array.mapi
            (fun i (f : dflow) ->
              let ls =
                if i < ns then f.flinks
                else List.filter (Hashtbl.mem insolve) f.flinks
              in
              Array.of_list (List.map dense ls))
            flows
        in
        let n_links = !n_links in
        let lid_of = Array.make (max 1 n_links) 0 in
        List.iteri (fun i lid -> lid_of.(n_links - 1 - i) <- lid) !lids;
        let cap = Array.map (fun lid -> (dlink t lid).lcap) lid_of in
        let lmem = Array.make (max 1 n_links) [] in
        Array.iteri
          (fun i links ->
            Array.iter (fun li -> lmem.(li) <- i :: lmem.(li)) links)
          fl;
        t.s_flows_touched <- t.s_flows_touched + n;
        t.s_links_touched <- t.s_links_touched + n_links;
        let rates, levels = waterfill n eff fl n_links cap lmem in
        (* Fixpoint checks: a clamped flow must reproduce its previous
           rate exactly, and no in-solve link's saturation level may
           change while it still has clamped members — either breach
           means the bottleneck structure shifted, so the breached
           flows join the scope and the solve expands. *)
        let promote : (int, dflow) Hashtbl.t = Hashtbl.create 8 in
        for i = ns to n - 1 do
          if rates.(i) <> flows.(i).rate then
            Hashtbl.replace promote flows.(i).fid flows.(i)
        done;
        for li = 0 to n_links - 1 do
          let l = Hashtbl.find insolve lid_of.(li) in
          if levels.(li) <> l.level then
            Hashtbl.iter
              (fun fid f ->
                if not (Hashtbl.mem scope fid) then
                  Hashtbl.replace promote fid f)
              l.lmembers
        done;
        if Hashtbl.length promote = 0 then begin
          for i = 0 to ns - 1 do
            sf.(i).rate <- rates.(i);
            sf.(i).pending <- false
          done;
          Hashtbl.iter
            (fun lid (l : dlink) ->
              (l.level <-
                 (match Hashtbl.find_opt lidx lid with
                 | Some li -> levels.(li)
                 | None -> infinity));
              if Hashtbl.length l.lmembers = 0 then Hashtbl.remove t.dlinks lid
              else begin
                (* exact member-rate sum in ascending fid order — the
                   canonical order every solver freezes in — so the
                   fast path's residual checks start from a
                   reproducible baseline *)
                let fids =
                  Hashtbl.fold (fun fid _ acc -> fid :: acc) l.lmembers []
                  |> List.sort Int.compare
                in
                l.lload <-
                  List.fold_left
                    (fun acc fid ->
                      acc +. (Hashtbl.find l.lmembers fid).rate)
                    0.0 fids
              end)
            insolve;
          t.last_touched <-
            List.rev_append fast
              (Array.to_list (Array.map (fun f -> f.fid) sf));
          t.s_solves <- t.s_solves + 1;
          stable := true
        end
        else begin
          t.s_promotions <- t.s_promotions + Hashtbl.length promote;
          Hashtbl.iter (fun _ f -> add_scope f) promote
        end
      done
    end
end

let link_loads flows rates =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i f ->
      List.iter
        (fun l ->
          let cur = Option.value (Hashtbl.find_opt tbl l) ~default:0.0 in
          Hashtbl.replace tbl l (cur +. rates.(i)))
        f.links)
    flows;
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
